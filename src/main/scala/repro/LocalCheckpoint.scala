package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.LogicalRDD

/** Release of `localCheckpoint`ed tables.
  *
  * `Dataset.unpersist()` frees nothing for them: their blocks belong to the
  * RDD inside the frame's `LogicalRDD` plan, not to the cache manager, and
  * stay held until a driver GC lets the ContextCleaner drop them.
  */
object LocalCheckpoint {

  /** Free the blocks behind each frame returned by `localCheckpoint()`,
    * without blocking.
    */
  def release(tables: DataFrame*): Unit = tables.foreach { df =>
    df.queryExecution.logical match {
      case r: LogicalRDD => r.rdd.unpersist(blocking = false)
      case other => throw new IllegalArgumentException(
        s"not a localCheckpoint()ed table: ${other.nodeName}")
    }
  }
}
