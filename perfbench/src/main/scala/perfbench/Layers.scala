package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.blocking.{BlockCollection, BlockFiltering, BlockPurging, BlockStats, TokenBlocking}
import repro.core._
import repro.er.ErDataset
import repro.exp.Experiments

import scala.collection.mutable

/** The traced run's layer-by-layer pass over one input. Each lazy layer is
  * forced with a `noop` write under its own job group, on an input that was
  * materialized beforehand (untimed, `localCheckpoint`), so the span, jobs and
  * shuffle bytes are that layer's own. Row counts are taken afterwards by
  * separate, untimed queries.
  */
final class Layers(spark: SparkSession, meter: SparkMeter, tracer: Tracer) {

  val out = mutable.LinkedHashMap.empty[String, Double]

  private def add(name: String, v: Double): Unit = out(name) = out.getOrElse(name, 0.0) + v
  private def mb(bytes: Long): Double = bytes / 1e6

  private def untimed[A](f: => A): A = tracer.span("harness.untimed")(f)

  /** Force `df` under span `name`; record `<key>.s`, `.rows`, `.shuffle_mb`. */
  private def forced(name: String, key: String, df: DataFrame): DataFrame = {
    tracer.span(name)(df.write.format("noop").mode("overwrite").save())
    add(s"$key.s", tracer.last(name))
    add(s"$key.shuffle_mb", mb(meter.forGroup(spark, name).shuffleWriteBytes))
    val kept = untimed(df.localCheckpoint())
    add(s"$key.rows", untimed(kept.count()).toDouble)
    kept
  }

  /** The configurations traced on every workload: Table 5's BLAST and BCl2
    * and Table 7's RCNP (one per pruning family and feature-set cost).
    */
  val configs: Seq[(String, Experiments.FinalConfig)] =
    Seq("blast" -> "BLAST", "rcnp" -> "RCNP", "bcl2" -> "BCl2").map { case (k, label) =>
      k -> Workloads.finalConfig(label)
    }

  def blocking(ds: ErDataset): BlockCollection = {
    val assigned = forced("blocking.TokenBlocking", "tokenblocking", TokenBlocking.assign(ds.profiles))
    val purged = forced("blocking.BlockPurging", "blockpurging", BlockPurging(assigned, ds.nEntities))
    val filtered = forced("blocking.BlockFiltering", "blockfiltering", BlockFiltering(purged))
    val bc = tracer.span("blocking.BlockStats") {
      BlockStats.fromAssignments(filtered, ds.dirty, ds.n1, if (ds.dirty) 0L else ds.n2)
    }
    add("blockstats.s", tracer.last("blocking.BlockStats"))
    val candidates = untimed(BlockStats.candidatePairs(bc).count()).toDouble
    add("blockstats.blocks", bc.nBlocks.toDouble)
    add("blockstats.comparisons", bc.totComps)
    add("blockstats.candidates", candidates)
    add("blockstats.useful_ratio", candidates / bc.totComps)
    bc
  }

  /** Features → sample → train → score → prune → evaluate, each on its own,
    * then the same configuration as one `Pipeline.run`. Returns that run's
    * metrics beside `LocalSweep.run`'s on the same features (collected
    * untimed), and the collected pairs, for the correctness checks.
    */
  def config(ds: ErDataset, bc: BlockCollection, key: String, cfg: Experiments.FinalConfig,
             nDup: Long, seed: Long): (Pass.ConfigResult, LocalSweep.LocalPairs) = {
    val pc = Workloads.perClass(cfg, nDup)
    val cols = Scheme.featureColumns(cfg.schemes)
    val labeled = forced(s"core.Features.$key", s"features.$key",
      Features.labeled(Features.compute(bc, cfg.schemes), ds.groundTruth))

    val ts = tracer.span("core.Trainer.sample")(Trainer.sample(labeled, cols, pc, pc, seed))
    add("trainer.sample_s", tracer.last("core.Trainer.sample"))
    add("trainer.sample_rows_requested", 2.0 * pc)
    add("trainer.sample_rows_drawn", ts.size.toDouble)

    val model = tracer.span("core.LogisticRegression.train")(
      LogisticRegression.train(ts.featureNames, ts.x, ts.y))
    add("lr.train_s", tracer.last("core.LogisticRegression.train"))

    val scored = Trainer.score(labeled, model)
    val algo = cfg.algo.toLowerCase
    add(s"pruning.$algo.valid_rows", untimed(scored.filter(col("prob") >= 0.5).count()).toDouble)
    val kept = forced(s"core.Pruning.$algo", s"pruning.$algo",
      Pruning.byName(cfg.algo, scored, bc.cepK, bc.cnpK))
    out(s"pruning.$algo.retained_rows") = out.remove(s"pruning.$algo.rows").get

    tracer.span("core.Evaluation")(Evaluation.evaluate(kept, ds.groundTruth, nDup))
    add("evaluation.s", tracer.last("core.Evaluation"))

    val name = s"core.Pipeline.$key"
    val cpu0 = Host.processCpuS()
    val gc0 = Host.gcS()
    val r = tracer.span(name)(Pipeline.run(ds, bc, cfg.schemes, cfg.algo, pc, pc, seed))
    val cpu = Host.processCpuS() - cpu0
    val gc = Host.gcS() - gc0
    val c = meter.forGroup(spark, name)
    add(s"pipeline.$key.s", tracer.last(name))
    add(s"pipeline.$key.runtime_s", r.runtimeSec)
    add(s"pipeline.$key.jobs", c.jobs.toDouble)
    add(s"pipeline.$key.tasks", c.tasks.toDouble)
    add(s"pipeline.$key.sql_queries", c.sqlQueries.toDouble)
    add(s"pipeline.$key.task_cpu_s", c.taskCpuNs / 1e9)
    add(s"pipeline.$key.driver_cpu_s", cpu - c.taskCpuNs / 1e9)
    add(s"pipeline.$key.gc_s", gc)
    add(s"pipeline.$key.shuffle_mb", mb(c.shuffleWriteBytes))
    add(s"features.$key.passes_per_run", mb(c.shuffleWriteBytes) / out(s"features.$key.shuffle_mb"))
    val lp = untimed(LocalSweep.collect(labeled, cfg.schemes, bc, nDup))
    untimed { labeled.unpersist(); kept.unpersist() }
    (Pass.ConfigResult(cfg, pc, r.metrics, LocalSweep.run(lp, cfg.schemes, cfg.algo, pc, pc, seed)), lp)
  }

  /** The driver-side sweep split into its four steps, over every 8th feature
    * subset for BLAST and RCNP with 250 labels per class.
    */
  def localSweep(lp: LocalSweep.LocalPairs, seed: Long): Unit = tracer.span("core.LocalSweep") {
    var sample, train, score, prune = 0L
    for (mask <- 1 to 255 by 8; algo <- Seq("BLAST", "RCNP")) {
      val colIdx = Scheme.featureColumns(Scheme.fromMask(mask)).map(lp.columnIndex).toArray
      var t = System.nanoTime()
      val ts = LocalSweep.sample(lp, colIdx, 250, 250, seed)
      sample += System.nanoTime() - t; t = System.nanoTime()
      val model = LogisticRegression.train(ts.featureNames, ts.x, ts.y)
      train += System.nanoTime() - t; t = System.nanoTime()
      val probs = Array.tabulate(lp.size)(r => model.probability(colIdx.map(lp.x(r)(_))))
      score += System.nanoTime() - t; t = System.nanoTime()
      LocalSweep.prune(lp, probs, algo)
      prune += System.nanoTime() - t
    }
    add("localsweep.sample_s", sample / 1e9)
    add("localsweep.train_s", train / 1e9)
    add("localsweep.score_s", score / 1e9)
    add("localsweep.prune_s", prune / 1e9)
  }
}
