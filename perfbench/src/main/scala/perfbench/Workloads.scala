package perfbench

import org.apache.spark.sql.SparkSession
import repro.er.{CcConfig, Datasets, DirtyConfig, ErDataset, ErSynth}
import repro.exp.Experiments
import repro.exp.Experiments.FinalConfig

/** The workloads. Each generates its profiles from a scaled copy of a
  * registry config, with the config's own generator seed; the run's seed
  * draws every training sample. The program sees only the generated inputs.
  *
  * Every pass of every workload has a Spark part, a collection of the pairs
  * to the driver and driver-side runs over them, so all six end-to-end
  * metrics exist on every workload, while the mix differs:
  *   - dirty-rt: `BlockStats.build` + `Pipeline.run` per Spark
  *     configuration (pipeline_s); the configurations' features collected
  *     with `LocalSweep.collect` (collect_s); per configuration one
  *     `LocalSweep.run` and `Experiments.trainingSizeStudy` (sweep_runs_per_s).
  *   - sweep: `Experiments.prepare` + `LocalSweep.collect` (collect_s), then
  *     `Experiments.featureSweep` (sweep_runs_per_s); pipeline_s is the pass.
  */
object Workloads {

  sealed trait Input {
    def name: String
    def generate(spark: SparkSession): ErDataset
  }
  final case class Clean(cfg: CcConfig) extends Input {
    def name: String = cfg.name
    def generate(spark: SparkSession): ErDataset = ErSynth.cleanClean(spark, cfg)
  }
  final case class Dirty(cfg: DirtyConfig) extends Input {
    def name: String = cfg.name
    def generate(spark: SparkSession): ErDataset = ErSynth.dirty(spark, cfg)
  }

  sealed trait DriverPhase
  /** `Experiments.trainingSizeStudy` of each Spark configuration: `sizes`
    * are total labelled pairs per run (Figs 11/14), each over `seeds`
    * training samples.
    */
  final case class TrainingSizes(sizes: Seq[Int], seeds: Int) extends DriverPhase
  /** `Experiments.featureSweep`: the 255 feature subsets per algorithm. */
  final case class FeatureSweep(algos: Seq[String], perClass: Int) extends DriverPhase

  final case class Workload(
      name: String,
      input: Input,
      sparkConfigs: Seq[FinalConfig],
      driver: DriverPhase,
  )

  /** A configuration of Tables 5/7 by its label. */
  def finalConfig(label: String): FinalConfig =
    (Experiments.table5Configs ++ Experiments.table7Configs).find(_.label == label).get

  /** Labels per class of a configuration: a fixed count, or a share of |D|
    * with a floor of 5 (the rule the program's experiments apply).
    */
  def perClass(cfg: FinalConfig, nDup: Long): Int =
    cfg.trainPerClass.fold(identity, f => math.max(5, math.ceil(f * nDup).toInt))

  /** The Clean-Clean input keeps the registry config's generator seed:
    * seeded copies at 0.2 scale moved |C| from 5,947 to 8,280 pairs over 20
    * seeds, and every end-to-end metric of the sweep with it.
    */
  private def cc(name: String, scale: Double): Clean = {
    val c = Datasets.cleanClean.find(_.name == name).get
    Clean(c.copy(
      name = f"${c.name}x$scale%.2f",
      n1 = (c.n1 * scale).round.toInt, n2 = (c.n2 * scale).round.toInt,
      nDup = (c.nDup * scale).round.toInt,
      midVocab = math.max(8, (c.midVocab * scale).round.toInt)))
  }

  /** The Dirty ER input keeps the registry config's own generator seed:
    * at 2,000 profiles, |C| of seeded copies moved by 40% between seeds
    * (whether a stop-word block survives Block Filtering), which no
    * end-to-end metric of a 40 s run could absorb.
    */
  private def dirty(name: String, nEntities: Int): Dirty = {
    val d = Datasets.scalability.find(_.name == name).get
    val scale = nEntities.toDouble / d.nEntities
    Dirty(d.copy(name = s"${d.name}-$nEntities", nEntities = nEntities,
      midVocab = (d.midVocab * scale).round.toInt))
  }

  val all: Seq[Workload] = Seq(
    // Dirty ER, the shape of the scalability series: the feature self-join
    // runs over one collection, so Σ‖b‖ grows with |b|² per block. Eight
    // sample seeds give a driver phase of about 1 s per pass (four gave
    // 0.5 s, which single slow moments of a shared host swayed more).
    Workload("dirty-rt", dirty("D10K-A", 2000),
      Seq(finalConfig("BLAST")), TrainingSizes(Seq(50, 100, 250, 500, 1000), seeds = 8)),
    // The 255-subset sweep of Tables 3/4 on the driver, Spark idle.
    Workload("sweep", cc("AbtBuy-A", 0.2),
      Nil, FeatureSweep(Seq("BLAST", "RCNP"), perClass = 250)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))
}
