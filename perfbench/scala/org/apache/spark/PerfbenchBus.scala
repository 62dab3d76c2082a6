package org.apache.spark

/** Lets the benchmark wait until its listener has seen every event posted
  * so far; the listener bus is asynchronous and its drain is
  * `private[spark]`, hence this package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
