package org.apache.spark

import org.apache.spark.memory.MemoryMode

/** Evicts every block of the driver's memory store, as memory pressure
  * does: a block whose storage level allows disk is written there, any
  * other is dropped. The memory store is `private[spark]`, hence this
  * package.
  */
object BlockEviction {

  /** The bytes freed; 0 when nothing is cached or a block is in use. */
  def evictAll(): Long = {
    val env = SparkEnv.get
    val store = env.blockManager.memoryStore
    val used = env.memoryManager.onHeapStorageMemoryUsed - store.currentUnrollMemory
    if (used <= 0) 0L else store.evictBlocksToFreeSpace(None, used, MemoryMode.ON_HEAP)
  }
}
