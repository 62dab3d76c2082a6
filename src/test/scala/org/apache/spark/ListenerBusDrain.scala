package org.apache.spark

/** Lets a test wait until its listener has seen every event posted so
  * far; the listener bus is asynchronous and its drain is
  * `private[spark]`, hence this package.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
