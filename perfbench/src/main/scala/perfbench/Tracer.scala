package perfbench

import org.apache.spark.sql.SparkSession

import scala.collection.mutable

/** Spans (name, start, end, parent) recorded around the harness's calls into
  * each layer. Each span also names the Spark job group of the work it
  * starts, so the [[SparkMeter]] can attribute jobs, tasks and shuffle bytes
  * to it; the listener bus is drained at each boundary so that callbacks
  * which carry no job group (query ends) are attributed to the right span.
  * Spans are kept in memory and written out when the run ends.
  */
final class Tracer(spark: SparkSession, meter: SparkMeter) {
  import Tracer.Span

  private val origin = System.nanoTime()
  private var stack = List.empty[String]
  val spans = mutable.ArrayBuffer.empty[Span]

  private def at(): Double = (System.nanoTime() - origin) / 1e9

  def span[A](name: String)(f: => A): A = {
    val parent = stack.headOption.getOrElse("")
    val sc = spark.sparkContext
    stack = name :: stack
    meter.drain(spark)
    meter.currentGroup = name
    sc.setJobGroup(name, name, interruptOnCancel = false)
    val start = at()
    try f
    finally {
      val end = at()
      meter.drain(spark)
      meter.currentGroup = parent
      stack = stack.tail
      if (parent.isEmpty) sc.clearJobGroup() else sc.setJobGroup(parent, parent, interruptOnCancel = false)
      spans += Span(name, parent, start, end)
    }
  }

  /** Duration of the most recent span called `name`. */
  def last(name: String): Double = spans.findLast(_.name == name).map(s => s.endS - s.startS).get

  def toJson: String = Json.arr(spans.toSeq.map(s => Json.obj(Seq(
    "name" -> Json.str(s.name), "parent" -> Json.str(s.parent),
    "start_s" -> Json.num(s.startS), "end_s" -> Json.num(s.endS)))))
}

object Tracer {
  final case class Span(name: String, parent: String, startS: Double, endS: Double)
}
