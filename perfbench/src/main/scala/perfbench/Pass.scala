package perfbench

import org.apache.spark.sql.SparkSession
import repro.blocking.BlockStats
import repro.core.{Evaluation, Features, LocalSweep, Pipeline, Scheme}
import repro.er.ErDataset
import repro.exp.Experiments
import perfbench.Workloads._

/** The timed steps of a run, and what they measured and produced. */
object Pass {

  /** The workload's generated input, with its |D|. */
  final case class Data(input: Input, ds: ErDataset, nDup: Long)

  /** The input after `Experiments.prepare` + `LocalSweep.collect`. */
  final case class Collected(input: Input, ds: ErDataset, nDup: Long, nBlocks: Long,
                             sumBlockSizes: Long, totComps: Double, nCandidates: Long,
                             lp: LocalSweep.LocalPairs)

  final case class ConfigResult(cfg: Experiments.FinalConfig, perClass: Int,
                                spark: Evaluation.Metrics, local: Evaluation.Metrics)

  final case class Output(
      c: Collected,
      configs: Seq[ConfigResult],
      sizeRows: Seq[Experiments.TrainSizeRow],
      sweepRows: Seq[(String, Seq[Experiments.SweepRow])],
  )

  final case class Result(
      pipelineS: Double,
      cpuS: Double,
      jitS: Double,
      shuffleBytes: Long,
      collectS: Double,
      driverS: Double,
      allocBytes: Long,
      storageHeldBytes: Long,
      quiescedS: Double,
      out: Output,
  )

  /** Operations one pass attempts: the Spark workloads build the blocks, run
    * `Pipeline.run` per configuration and collect the pairs once; the sweep
    * prepares and collects once; then every driver-side run.
    */
  def operations(w: Workload): Int = 2 + w.sparkConfigs.size + driverRuns(w)

  /** Driver-side train → score → prune → evaluate runs of one pass. */
  def driverRuns(w: Workload): Int = w.driver match {
    case TrainingSizes(sizes, seeds) => w.sparkConfigs.size * (1 + sizes.size * seeds)
    case FeatureSweep(algos, _) => 255 * algos.size
  }

  private def step[A](tracer: Option[Tracer], name: String)(f: => A): A =
    tracer.fold(f)(_.span(name)(f))

  /** `Experiments.prepare` + `LocalSweep.collect`, then the program's own
    * cleanup (`Prepared.unpersist`).
    */
  def prepareAndCollect(tracer: Option[Tracer], input: Input, ds: ErDataset): Collected = {
    val (p, lp) = step(tracer, "exp.prepare+collect") {
      val p = Experiments.prepare(ds)
      (p, Experiments.local(p))
    }
    p.unpersist()
    Collected(input, ds, p.nDup, p.bc.nBlocks, p.bc.sumBlockSizes, p.bc.totComps, p.nCandidates, lp)
  }

  /** One pass over the workload's input. Every timed step starts on a
    * quiet JVM ([[Host.quiesce]]); the waits count in no time metric, but
    * `cpuS` and `jitS` include the work done during them (the JIT and GC
    * work the step left behind).
    */
  def run(spark: SparkSession, meter: SparkMeter, tracer: Option[Tracer], w: Workload,
          data: Data, seed: Long): Result = {
    val shuffle0 = meter.totals(spark).shuffleWriteBytes
    val cpu0 = Host.processCpuS()
    val jit0 = Host.jitS()
    val alloc0 = Host.threadAllocatedBytes()
    val Data(input, ds, nDup) = data
    var quiescedS = 0.0
    def timed[A](f: => A): (A, Double) = {
      quiescedS += Host.quiesce()
      val t = Host.now()
      val a = f
      (a, Host.secondsSince(t))
    }

    val (out, pipelineS, collectS, localS) = w.driver match {
      case FeatureSweep(algos, pc) =>
        val (c, collectS) = timed(prepareAndCollect(tracer, input, ds))
        val (rows, localS) = timed(step(tracer, "core.LocalSweep")(
          algos.map(a => a -> Experiments.featureSweep(Seq(c.lp), a, pc, Seq(seed)))))
        (Output(c, Nil, Nil, rows), collectS + localS, collectS, localS)

      case TrainingSizes(sizes, seeds) =>
        val ((bc, runs), pipelineS) = timed {
          val bc = step(tracer, "blocking.BlockStats.build")(BlockStats.build(ds))
          (bc, w.sparkConfigs.map { cfg =>
            val pc = perClass(cfg, nDup)
            (cfg, pc, step(tracer, s"core.Pipeline.${cfg.label}")(
              Pipeline.run(ds, bc, cfg.schemes, cfg.algo, pc, pc, seed)))
          })
        }

        // The driver-side path over the same blocks: features of the
        // configurations' schemes, collected once.
        val schemes = Scheme.all.filter(s => w.sparkConfigs.exists(_.schemes.contains(s)))
        val (lp, collectS) = timed(step(tracer, "core.LocalSweep.collect")(LocalSweep.collect(
          Features.labeled(Features.compute(bc, schemes), ds.groundTruth), schemes, bc, nDup)))
        val c = Collected(input, ds, nDup, bc.nBlocks, bc.sumBlockSizes, bc.totComps, lp.size, lp)
        bc.eb.unpersist(); bc.blockStats.unpersist() // as Experiments.finals does

        val ((configs, rows), localS) = timed(step(tracer, "core.LocalSweep") {
          runs.map { case (cfg, pc, r) =>
            (ConfigResult(cfg, pc, r.metrics, LocalSweep.run(lp, cfg.schemes, cfg.algo, pc, pc, seed)),
              Experiments.trainingSizeStudy(Seq(lp), cfg.algo, cfg.schemes, sizes,
                (0 until seeds).map(seed + _)))
          }.unzip
        })
        (Output(c, configs, rows.flatten, Nil), pipelineS, collectS, localS)
    }
    val cpu = Host.processCpuS() - cpu0
    val jit = Host.jitS() - jit0
    val alloc = Host.threadAllocatedBytes() - alloc0
    val shuffle = meter.totals(spark).shuffleWriteBytes - shuffle0
    val held = spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum
    Result(pipelineS, cpu, jit, shuffle, collectS, localS, alloc, held, quiescedS, out)
  }
}
