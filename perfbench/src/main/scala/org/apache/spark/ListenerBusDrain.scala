package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so the
  * counters a listener keeps are complete when the harness reads them. The
  * bus is package-private, hence this one-line bridge in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
