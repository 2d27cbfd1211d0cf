package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.LocalCheckpoint
import repro.blocking.{BlockCollection, BlockStats}
import repro.core._
import repro.er.{Datasets, ErDataset, ErSynth}

import java.io.{File, PrintWriter}

/** The paper's experiments (§5), one entrypoint per table/figure. Each
  * returns a formatted text table (also written under `results/`) plus
  * structured rows for the bench assertions. Shared by `bench/` suites and
  * the `jobs/` spark-submit wrappers.
  */
object Experiments {

  /** Default seeds: the paper averages 10 runs; we use 3 (DESIGN.md §3). */
  val Seeds: Seq[Long] = Seq(1L, 2L, 3L)

  // --------------------------------------------------------------- plumbing

  /** A dataset prepared for meta-blocking: blocks built, all-8-scheme feature
    * table computed, labeled and materialized (`localCheckpoint`).
    */
  final case class Prepared(
      ds: ErDataset,
      bc: BlockCollection,
      labeled: DataFrame,
      nDup: Long,
      nCandidates: Long,
  ) {
    /** Release the feature table and the blocks, without blocking. */
    def unpersist(): Unit = LocalCheckpoint.release(labeled, bc.eb, bc.blockStats)
  }

  def prepare(ds: ErDataset): Prepared = {
    val bc = BlockStats.build(ds)
    // localCheckpoint truncates the (join-heavy) feature lineage so the many
    // downstream pruning queries stay cheap to plan and describe.
    val labeled = Features
      .labeled(Features.compute(bc, Scheme.all), ds.groundTruth)
      .localCheckpoint()
    val nCand = labeled.count()
    Prepared(ds, bc, labeled, ds.groundTruth.count(), nCand)
  }

  def prepareByName(spark: SparkSession, name: String): Prepared =
    prepare(Datasets.byName(spark, name))

  def local(p: Prepared): LocalSweep.LocalPairs =
    LocalSweep.collect(p.labeled, Scheme.all, p.bc, p.nDup)

  def avg(xs: Seq[Double]): Double = xs.sum / xs.size

  def meanMetrics(ms: Seq[Evaluation.Metrics]): Evaluation.Metrics =
    Evaluation.Metrics(
      avg(ms.map(_.recall)), avg(ms.map(_.precision)), avg(ms.map(_.f1)),
      math.round(avg(ms.map(_.retained.toDouble))),
      math.round(avg(ms.map(_.truePositives.toDouble))))

  def writeResult(name: String, content: String): Unit = {
    val dir = new File("results")
    dir.mkdirs()
    val pw = new PrintWriter(new File(dir, s"$name.txt"))
    try pw.write(content) finally pw.close()
  }

  private def fmt(d: Double): String = f"$d%.4f"
  private def fmtSci(d: Double): String = if (d >= 0.01) f"$d%.4f" else f"$d%.2e"

  // ------------------------------------------------------ Table 1 + Table 2

  final case class DatasetRow(name: String, n1: Long, n2: Long, nDup: Long,
                              nCand: Long, blocking: Evaluation.Metrics)

  /** Characteristics (Table 1) and blocking-only effectiveness (Table 2) of
    * every Clean-Clean dataset analog.
    */
  def datasetAndBlockingTables(spark: SparkSession,
                               names: Seq[String]): (Seq[DatasetRow], String, String) = {
    val rows = names.map { n =>
      val p = prepareByName(spark, n)
      val m = Evaluation.of(
        p.labeled.filter(org.apache.spark.sql.functions.col("label") === 1).count(),
        p.nCandidates, p.nDup)
      val row = DatasetRow(n, p.ds.n1, p.ds.n2, p.nDup, p.nCandidates, m)
      p.unpersist()
      row
    }
    val t1 = new StringBuilder
    t1 ++= f"${"Name"}%-18s ${"|E1|"}%8s ${"|E2|"}%8s ${"|D|"}%8s ${"|C|"}%10s\n"
    rows.foreach(r => t1 ++= f"${r.name}%-18s ${r.n1}%8d ${r.n2}%8d ${r.nDup}%8d ${r.nCand}%10d\n")
    val t2 = new StringBuilder
    t2 ++= f"${"Dataset"}%-18s ${"Recall"}%8s ${"Precision"}%12s ${"F1"}%12s\n"
    rows.foreach(r => t2 ++= f"${r.name}%-18s ${fmt(r.blocking.recall)}%8s " +
      f"${fmtSci(r.blocking.precision)}%12s ${fmtSci(r.blocking.f1)}%12s\n")
    (rows, t1.toString, t2.toString)
  }

  // ------------------------------------------------- Tables 3/4: the sweep

  final case class SweepRow(mask: Int, schemes: Seq[Scheme],
                            recall: Double, precision: Double, f1: Double)

  /** Brute-force sweep over all 255 feature subsets for one pruning
    * algorithm, averaging effectiveness across datasets and seeds (§5.3).
    * Runs on the driver-side fast path.
    */
  def featureSweep(pairs: Seq[LocalSweep.LocalPairs], algo: String,
                   perClass: Int, seeds: Seq[Long]): Seq[SweepRow] = {
    (1 to 255).map { mask =>
      val schemes = Scheme.fromMask(mask)
      val ms = for (lp <- pairs; s <- seeds)
        yield LocalSweep.run(lp, schemes, algo, perClass, perClass, s)
      val m = meanMetrics(ms)
      SweepRow(mask, schemes, m.recall, m.precision, m.f1)
    }.sortBy(-_.f1)
  }

  def sweepTable(rows: Seq[SweepRow], top: Int): String = {
    val sb = new StringBuilder
    sb ++= f"${"ID"}%4s ${"Feature set"}%-42s ${"Recall"}%8s ${"Precision"}%10s ${"F1"}%8s\n"
    rows.take(top).foreach { r =>
      sb ++= f"${r.mask}%4d ${Scheme.describe(r.schemes)}%-42s " +
        f"${fmt(r.recall)}%8s ${fmt(r.precision)}%10s ${fmt(r.f1)}%8s\n"
    }
    sb.toString
  }

  // ------------------------------------- Tables 5/7: final configurations

  final case class FinalRow(dataset: String, algo: String,
                            metrics: Evaluation.Metrics, rtSec: Double)

  /** One algorithm configuration of Tables 5/7. `trainPerClass` is either a
    * fixed count (50-instance setups) or derived from |D| (the [21] setups
    * use 5% of the positive class per class).
    */
  final case class FinalConfig(label: String, algo: String, schemes: Seq[Scheme],
                               trainPerClass: Either[Int, Double])

  val table5Configs: Seq[FinalConfig] = Seq(
    FinalConfig("BLAST", "BLAST", Scheme.blastOptimal, Left(25)),
    FinalConfig("BCl1", "BCl", Scheme.blastOptimal, Left(25)),
    FinalConfig("BCl2", "BCl", Scheme.smbOriginal, Right(0.05)),
  )

  val table7Configs: Seq[FinalConfig] = Seq(
    FinalConfig("RCNP", "RCNP", Scheme.rcnpOptimal, Left(25)),
    FinalConfig("CNP1", "CNP", Scheme.rcnpOptimal, Left(25)),
    FinalConfig("CNP2", "CNP", Scheme.smbOriginal, Right(0.05)),
  )

  private def perClassOf(cfg: FinalConfig, nDup: Long): Int = cfg.trainPerClass match {
    case Left(n) => n
    case Right(frac) => math.max(5, math.ceil(frac * nDup).toInt)
  }

  /** Run the final configurations over every dataset with
    * [[Pipeline.run]], which computes each run's features itself (RT is
    * part of the result). Metrics are averaged over `seeds`; RT is the mean
    * wall time.
    */
  def finals(spark: SparkSession, names: Seq[String], configs: Seq[FinalConfig],
             seeds: Seq[Long] = Seeds): Seq[FinalRow] =
    names.flatMap { n =>
      val ds = Datasets.byName(spark, n)
      val bc = BlockStats.build(ds)
      val rows = configs.map { cfg =>
        val perClass = perClassOf(cfg, ds.groundTruth.count())
        val runs = seeds.map(s => Pipeline.run(ds, bc, cfg.schemes, cfg.algo,
          perClass, perClass, s))
        FinalRow(n, cfg.label, meanMetrics(runs.map(_.metrics)),
          avg(runs.map(_.runtimeSec)))
      }
      LocalCheckpoint.release(bc.eb, bc.blockStats)
      rows
    }

  def finalsTable(rows: Seq[FinalRow], configs: Seq[FinalConfig]): String = {
    val sb = new StringBuilder
    val names = rows.map(_.dataset).distinct
    configs.foreach { cfg =>
      sb ++= s"--- ${cfg.label}: ${cfg.algo} with ${Scheme.describe(cfg.schemes)}, " +
        s"train=${cfg.trainPerClass.fold(n => s"$n/class", f => s"${(f * 100).toInt}% of |D| /class")}\n"
      sb ++= f"${"Dataset"}%-18s ${"Re"}%8s ${"Pr"}%10s ${"F1"}%10s ${"RT(s)"}%8s\n"
      names.foreach { n =>
        val r = rows.find(x => x.dataset == n && x.algo == cfg.label).get
        sb ++= f"${n}%-18s ${fmt(r.metrics.recall)}%8s ${fmtSci(r.metrics.precision)}%10s " +
          f"${fmtSci(r.metrics.f1)}%10s ${r.rtSec}%8.2f\n"
      }
      val ms = names.map(n => rows.find(x => x.dataset == n && x.algo == cfg.label).get)
      val m = meanMetrics(ms.map(_.metrics))
      sb ++= f"${"(average)"}%-18s ${fmt(m.recall)}%8s ${fmtSci(m.precision)}%10s " +
        f"${fmtSci(m.f1)}%10s ${avg(ms.map(_.rtSec))}%8.2f\n\n"
    }
    sb.toString
  }

  // --------------------------------------- Fig 5/6: algorithm selection

  final case class AlgoRow(algo: String, metrics: Evaluation.Metrics)

  /** Average effectiveness of all 8 pruning algorithms with the [21] feature
    * set and 250 labelled instances per class (§5.2), across datasets/seeds.
    */
  def algorithmSelection(pairs: Seq[LocalSweep.LocalPairs],
                         seeds: Seq[Long] = Seeds): Seq[AlgoRow] =
    (Pruning.weightBased ++ Pruning.cardinalityBased).map { algo =>
      val ms = for (lp <- pairs; s <- seeds)
        yield LocalSweep.run(lp, Scheme.smbOriginal, algo, 250, 250, s)
      AlgoRow(algo, meanMetrics(ms))
    }

  def algoTable(rows: Seq[AlgoRow]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Algorithm"}%-10s ${"Recall"}%8s ${"Precision"}%10s ${"F1"}%8s\n"
    rows.foreach(r => sb ++= f"${r.algo}%-10s ${fmt(r.metrics.recall)}%8s " +
      f"${fmt(r.metrics.precision)}%10s ${fmt(r.metrics.f1)}%8s\n")
    sb.toString
  }

  // --------------------------------------- Fig 11/14: training set size

  final case class TrainSizeRow(size: Int, metrics: Evaluation.Metrics)

  def trainingSizeStudy(pairs: Seq[LocalSweep.LocalPairs], algo: String,
                        schemes: Seq[Scheme], sizes: Seq[Int],
                        seeds: Seq[Long] = Seeds): Seq[TrainSizeRow] =
    sizes.map { total =>
      val perClass = total / 2
      val ms = for (lp <- pairs; s <- seeds)
        yield LocalSweep.run(lp, schemes, algo, perClass, perClass, s)
      TrainSizeRow(total, meanMetrics(ms))
    }

  // ------------------------------------------- Table 6 + scalability study

  final case class ModelRow(iteration: Int, coeffs: Map[String, Double],
                            intercept: Double, candidates: Long, detected: Long)

  /** Table 6: BLAST's logistic-regression models over the D100K analog, one
    * per training iteration (seed). Coefficients are reported in raw feature
    * space, like the paper's Weka models.
    */
  def blastModels(lp: LocalSweep.LocalPairs, seeds: Seq[Long] = Seeds): Seq[ModelRow] =
    seeds.zipWithIndex.map { case (s, it) =>
      val (model, probs) = LocalSweep.trainAndScore(lp, Scheme.blastOptimal, 25, 25, s)
      val retained = LocalSweep.prune(lp, probs, "BLAST")
      val (raw, b) = model.rawCoefficients
      ModelRow(it + 1,
        model.featureNames.zip(raw.toIndexedSeq).toMap, b,
        retained.length, retained.count(lp.label(_)))
    }

  def modelTable(rows: Seq[ModelRow]): String = {
    val sb = new StringBuilder
    val feats = rows.head.coeffs.keys.toSeq.sorted
    sb ++= f"${"Feature"}%-22s" + rows.map(r => f"${s"Iteration ${r.iteration}"}%22s").mkString + "\n"
    feats.foreach { f0 =>
      sb ++= f"$f0%-22s" + rows.map(r => f"${r.coeffs(f0)}%22.4f").mkString + "\n"
    }
    sb ++= f"${"Intercept"}%-22s" + rows.map(r => f"${r.intercept}%22.4f").mkString + "\n"
    sb ++= f"${"Candidate pairs"}%-22s" + rows.map(r => f"${r.candidates}%22d").mkString + "\n"
    sb ++= f"${"Detected duplicates"}%-22s" + rows.map(r => f"${r.detected}%22d").mkString + "\n"
    sb.toString
  }

  final case class ScalabilityRow(dataset: String, nCand: Long, algo: String,
                                  metrics: Evaluation.Metrics, rtSec: Double,
                                  speedup: Double)

  /** Scalability study (§5.5, Figs 17/18): BCl/CNP with the [21] config vs
    * BLAST/RCNP with 50 labelled instances, over the Dirty ER analogs.
    * RT comes from [[Pipeline.run]] (features computed per run); speedup extrapolates from the
    * smallest dataset as in the paper.
    */
  def scalability(spark: SparkSession, names: Seq[String],
                  seeds: Seq[Long] = Seeds): Seq[ScalabilityRow] = {
    val configs = Seq(
      FinalConfig("BCl", "BCl", Scheme.smbOriginal, Right(0.05)),
      FinalConfig("BLAST", "BLAST", Scheme.blastOptimal, Left(25)),
      FinalConfig("CNP", "CNP", Scheme.smbOriginal, Right(0.05)),
      FinalConfig("RCNP", "RCNP", Scheme.rcnpOptimal, Left(25)))

    val raw = names.map { n =>
      val ds = Datasets.byName(spark, n)
      val bc = BlockStats.build(ds)
      val nCand = BlockStats.candidatePairs(bc).count()
      val rows = configs.map { cfg =>
        val perClass = perClassOf(cfg, ds.groundTruth.count())
        val runs = seeds.map(s => Pipeline.run(ds, bc, cfg.schemes, cfg.algo,
          perClass, perClass, s))
        (cfg.label, meanMetrics(runs.map(_.metrics)), avg(runs.map(_.runtimeSec)))
      }
      LocalCheckpoint.release(bc.eb, bc.blockStats)
      (n, nCand, rows)
    }

    val base = raw.head
    raw.flatMap { case (n, nCand, rows) =>
      rows.map { case (label, m, rt) =>
        val baseRt = base._3.find(_._1 == label).get._3
        val speedup = (nCand.toDouble / base._2) * (baseRt / rt)
        ScalabilityRow(n, nCand, label, m, rt, speedup)
      }
    }
  }

  def scalabilityTable(rows: Seq[ScalabilityRow]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-10s ${"|C|"}%10s ${"Algo"}%-7s ${"Re"}%8s ${"Pr"}%10s ${"F1"}%10s ${"RT(s)"}%8s ${"Speedup"}%8s\n"
    rows.foreach { r =>
      sb ++= f"${r.dataset}%-10s ${r.nCand}%10d ${r.algo}%-7s ${fmt(r.metrics.recall)}%8s " +
        f"${fmtSci(r.metrics.precision)}%10s ${fmtSci(r.metrics.f1)}%10s ${r.rtSec}%8.2f ${r.speedup}%8.3f\n"
    }
    sb.toString
  }
}
