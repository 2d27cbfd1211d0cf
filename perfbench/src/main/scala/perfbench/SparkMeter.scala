package perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener

import scala.collection.mutable

/** Spark-side counters, keyed by job group ("" for work outside any group).
  * The untraced run reads only the shuffle bytes; the traced run also sets a
  * job group per layer and registers [[QueryExecutionListener]] callbacks.
  */
final class SparkMeter extends SparkListener with QueryExecutionListener {

  final class Counts {
    var jobs = 0L
    var tasks = 0L
    var taskCpuNs = 0L
    var shuffleWriteBytes = 0L
    var sqlQueries = 0L
    def snapshot(): Counts = {
      val c = new Counts
      c.jobs = jobs; c.tasks = tasks; c.taskCpuNs = taskCpuNs
      c.shuffleWriteBytes = shuffleWriteBytes; c.sqlQueries = sqlQueries
      c
    }
  }

  private val byGroup = mutable.HashMap.empty[String, Counts]
  private val total = new Counts
  private val stageGroup = mutable.HashMap.empty[Int, String]

  /** The span whose work is running; set by the [[Tracer]] with the bus
    * drained, so query callbacks land in the span that issued the query.
    */
  @volatile var currentGroup: String = ""

  private def group(g: String): Counts = byGroup.getOrElseUpdate(g, new Counts)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    e.stageIds.foreach(stageGroup(_) = g)
    group(g).jobs += 1
    total.jobs += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = group(stageGroup.getOrElse(e.stageId, ""))
    val m = e.taskMetrics
    for (x <- Seq(c, total)) {
      x.tasks += 1
      if (m != null) {
        x.taskCpuNs += m.executorCpuTime
        x.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    synchronized {
      val c = group(currentGroup)
      for (x <- Seq(c, total)) x.sqlQueries += 1
    }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  /** Counters after every event posted so far has been delivered. */
  def drain(spark: SparkSession): Unit = ListenerBusDrain(spark.sparkContext)

  def totals(spark: SparkSession): Counts = { ListenerBusDrain(spark.sparkContext); synchronized(total.snapshot()) }

  def forGroup(spark: SparkSession, g: String): Counts = {
    ListenerBusDrain(spark.sparkContext)
    synchronized(byGroup.get(g).map(_.snapshot()).getOrElse(new Counts))
  }
}
