package perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._
import scala.util.Try

/** Process- and host-level meters read around each timed pass. */
object Host {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  def now(): Long = System.nanoTime()
  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** CPU seconds used by every thread of this JVM so far. */
  def processCpuS(): Double = os.getProcessCpuTime / 1e9

  /** Seconds the JVM's collectors have spent so far (all collectors). */
  def gcS(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Seconds the JIT compilers have spent so far. */
  def jitS(): Double = ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1e3

  /** Bytes the calling thread has allocated so far. */
  def threadAllocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  val QuietWindowMs = 100L
  val QuiesceCapS = 5.0

  /** Waits until the JVM is idle: a full GC, then until the process uses
    * less than a tenth of a core over [[QuietWindowMs]] (the JIT compiler
    * threads have drained the work the previous step left them), at most
    * [[QuiesceCapS]]. Returns the seconds waited. A timed step that starts
    * after it competes with no backlog of the step before it.
    */
  def quiesce(): Double = {
    val t0 = now()
    System.gc()
    var quiet = false
    while (!quiet && secondsSince(t0) < QuiesceCapS) {
      val c0 = processCpuS()
      Thread.sleep(QuietWindowMs)
      quiet = processCpuS() - c0 < 0.1 * QuietWindowMs / 1e3
    }
    secondsSince(t0)
  }

  /** Seconds since the JVM started, as the JVM itself reports it. */
  def sinceJvmStartS(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

  /** Machine-wide CPU steal in seconds from /proc/stat (0 where the file or
    * the field is missing). Steal is time the hypervisor ran someone else
    * while this VM's vCPUs were ready to run.
    */
  def stealS(): Double = Try {
    val src = scala.io.Source.fromFile("/proc/stat")
    try {
      val cpu = src.getLines().find(_.startsWith("cpu ")).get.trim.split("\\s+")
      cpu(8).toLong / 100.0 // USER_HZ
    } finally src.close()
  }.getOrElse(0.0)
}
