package perfbench

import org.apache.spark.sql.SparkSession

import java.io.{File, PrintWriter}
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

/** Entry point of the benchmark JVM (started by `perfbench/run.py`).
  *
  * One run: start Spark and generate the input (`setup_s`), [[WarmupPasses]]
  * untimed passes, then whole timed passes until `--seconds` is used up (at
  * least [[MinPasses]]), then the correctness checks on the last pass.
  * End-to-end metrics are medians over the timed passes. With `--trace 1`
  * the passes carry spans and job groups, and a layer-by-layer pass follows
  * (with its own checks of every traced configuration); the per-layer
  * metrics and the spans go to the trace file.
  */
object Main {

  val MinPasses = 3
  val WarmupPasses = 1

  /** `local[k]` with k below the cores the JVM sees (at most 3), leaving a
    * core for the driver thread, JIT and GC; as many shuffle partitions, so
    * every stage is one task wave.
    */
  val Threads: Int = math.max(1, math.min(3, Runtime.getRuntime.availableProcessors - 1))

  /** `--key value` pairs, and `--selftest` alone. */
  def parse(args: Seq[String]): Map[String, String] = args match {
    case "--selftest" +: rest => parse(rest) + ("selftest" -> "1")
    case k +: v +: rest if k.startsWith("--") => parse(rest) + (k.drop(2) -> v)
    case Seq() => Map.empty
    case other => throw new IllegalArgumentException(s"unexpected arguments: ${other.mkString(" ")}")
  }

  def session(outDir: String): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$Threads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", Threads.toLong)
      // The program's own session settings (tests and jobs use the same).
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.sql.ansi.enabled", false)
      .config("spark.sql.maxPlanStringLength", 8192L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new File(outDir, "warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** The workload's input with its |D| (the ground truth is generated with
    * the profiles; counting it is part of set-up).
    */
  def generate(spark: SparkSession, w: Workloads.Workload): Pass.Data = {
    val ds = w.input.generate(spark)
    Pass.Data(w.input, ds, ds.groundTruth.count())
  }

  /** Unit of a per-layer metric, from its name. */
  private def layerUnit(name: String): String = name.split('.').last match {
    case n if n == "s" || n.endsWith("_s") => "s"
    case n if n.endsWith("_mb") => "MB"
    case "useful_ratio" | "passes_per_run" => "ratio"
    case _ => "count"
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def main(args: Array[String]): Unit = {
    val a = parse(args.toSeq)
    def arg(k: String): String = a.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val seed = arg("seed").toLong
    val outDir = arg("out")
    if (a.contains("selftest")) sys.exit(SelfTest.run(seed, outDir))
    val w = Workloads.byName(arg("workload"))
    val seconds = arg("seconds").toDouble
    val trace = arg("trace") == "1"

    val spark = session(outDir)
    val meter = new SparkMeter
    spark.sparkContext.addSparkListener(meter)
    val tracer = if (trace) Some(new Tracer(spark, meter)) else None
    if (trace) spark.listenerManager.register(meter)

    val tg = Host.now()
    val data = generate(spark, w)
    val genS = Host.secondsSince(tg)
    val setupS = Host.sinceJvmStartS()

    val tw = Host.now()
    (1 to WarmupPasses).foreach(_ => Pass.run(spark, meter, tracer, w, data, seed)) // untimed
    val warmupS = Host.secondsSince(tw)

    val ops = Pass.operations(w)
    val passes = mutable.ArrayBuffer.empty[Pass.Result]
    var attempted, failed = 0L
    val steal0 = Host.stealS()
    val gc0 = Host.gcS()
    val window = Host.now()
    var lastPassS = 0.0
    while (attempted < MinPasses * ops || Host.secondsSince(window) + lastPassS <= seconds) {
      val tp = Host.now()
      Try(Pass.run(spark, meter, tracer, w, data, seed)) match {
        case Success(r) => passes += r
        case Failure(e) => failed += ops; e.printStackTrace()
      }
      attempted += ops
      lastPassS = Host.secondsSince(tp)
    }
    val stealS = Host.stealS() - steal0
    val gcS = Host.gcS() - gc0
    val jitS = passes.map(_.jitS).sum
    if (passes.isEmpty) {
      System.err.println("no timed pass completed")
      sys.exit(1)
    }

    val tc = Host.now()
    val last = passes.last.out
    val truth = Checks.truthOf(data.ds)
    val passFailures = Checks.output(w, last, truth, Checks.referenceBlocks(data.ds, truth), seed) ++
      Checks.repeatable(passes.toSeq)
    val checksS = Host.secondsSince(tc)

    val (metrics, traceFailures): (Seq[(String, Double, String)], Seq[String]) =
      if (!trace) (Seq(
        ("setup_s", setupS, "s"),
        ("pipeline_s", median(passes.map(_.pipelineS).toSeq), "s"),
        ("cpu_s", median(passes.map(_.cpuS).toSeq), "s"),
        ("shuffle_mb", median(passes.map(_.shuffleBytes / 1e6).toSeq), "MB"),
        ("collect_s", median(passes.map(_.collectS).toSeq), "s"),
        // Pooled over the timed passes: the single-threaded driver phase runs
        // at one of two speeds per pass on a shared host, so one pass's rate
        // (the best or the median) repeats worse between runs.
        ("sweep_runs_per_s", passes.size * Pass.driverRuns(w) / passes.map(_.driverS).sum, "runs/s")), Nil)
      else {
        val t = tracer.get
        val layers = new Layers(spark, meter, t)
        val bc = layers.blocking(data.ds)
        // Checks 2–5 for every traced configuration, RCNP's and BCl2's too.
        val configFailures = layers.configs.flatMap { case (k, cfg) =>
          val (r, lp) = layers.config(data.ds, bc, k, cfg, data.nDup, seed)
          Checks.config(s"${data.input.name}/traced/$k", lp, r, truth, seed)
        }
        // The driver-side steps need all 8 schemes collected.
        layers.localSweep(Pass.prepareAndCollect(tracer, data.input, data.ds).lp, seed)
        val profileRows = t.span("harness.untimed")(data.ds.profiles.count()).toDouble
        val perLayer = Seq(
          "er.gen_s" -> genS,
          "er.profile_rows" -> profileRows,
          "blockstats.storage_held_mb" -> passes.last.storageHeldBytes / 1e6,
          "localsweep.alloc_mb" -> median(passes.map(_.allocBytes / 1e6).toSeq),
          "host.steal_s" -> stealS,
          "host.gc_s" -> gcS,
          "host.jit_s" -> jitS,
          "trace.pipeline_s" -> median(passes.map(_.pipelineS).toSeq),
        ) ++ layers.out.toSeq
        writeTrace(outDir, seed, w.name, data.input.name, t, perLayer)
        (perLayer.map { case (k, v) => (k, v, layerUnit(k)) }, configFailures)
      }

    println(f"# run: setup_s=$setupS%.2f warmup_s=$warmupS%.2f checks_s=$checksS%.2f " +
      f"passes=${passes.size} pipeline_s=${passes.map(p => f"${p.pipelineS}%.2f").mkString(",")} " +
      f"runs_per_s=${passes.map(p => f"${Pass.driverRuns(w) / p.driverS}%.1f").mkString(",")} " +
      f"shuffle_mb=${passes.map(p => f"${p.shuffleBytes / 1e6}%.2f").mkString(",")} " +
      f"collect_s=${passes.map(p => f"${p.collectS}%.3f").mkString(",")} " +
      f"cpu_s=${passes.map(p => f"${p.cpuS}%.2f").mkString(",")} " +
      f"jit_s=${passes.map(p => f"${p.jitS}%.2f").mkString(",")} " +
      f"quiesced_s=${passes.map(p => f"${p.quiescedS}%.2f").mkString(",")} " +
      s"C=${last.c.nCandidates} " +
      f"host.steal_s=$stealS%.2f host.gc_s=$gcS%.2f jvm_s=${Host.sinceJvmStartS()}%.2f")
    val failures = passFailures ++ traceFailures
    failures.foreach(f => System.err.println(s"CHECK FAILED: $f"))
    println(Json.obj(Seq(
      "correct" -> failures.isEmpty.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map { case (k, v, u) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }))))
    spark.stop()
  }

  private def writeTrace(outDir: String, seed: Long, workload: String, input: String, t: Tracer,
                         counters: Seq[(String, Double)]): Unit = {
    val dir = new File(outDir)
    dir.mkdirs()
    val pw = new PrintWriter(new File(dir, s"trace-$workload-$seed.json"))
    try pw.println(Json.obj(Seq(
      "workload" -> Json.str(workload), "seed" -> seed.toString, "input" -> Json.str(input),
      "counters" -> Json.obj(counters.map { case (k, v) => k -> Json.num(v) }),
      "spans" -> t.toJson)))
    finally pw.close()
  }
}
