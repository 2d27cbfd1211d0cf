package repro.core

import repro.SparkSpec
import repro.blocking.BlockStats
import repro.er.{Datasets, ErSynth}

class PipelineSpec extends SparkSpec {

  private lazy val ds = ErSynth.cleanClean(spark, Datasets.unitCc)
  private lazy val bc = BlockStats.build(ds)

  test("blocking metrics: near-complete recall, low precision") {
    val m = Pipeline.blockingMetrics(ds, bc)
    assert(m.recall > 0.85, s"blocking recall ${m.recall}")
    assert(m.precision < 0.2, s"blocking precision ${m.precision}")
  }

  test("BCl run: precision improves over blocking without destroying recall") {
    val blocking = Pipeline.blockingMetrics(ds, bc)
    val r = Pipeline.run(ds, bc, Scheme.blastOptimal, "BCl", 25, 25, seed = 1)
    assert(r.metrics.precision > blocking.precision * 2,
      s"meta-blocking should multiply precision (${blocking.precision} -> ${r.metrics.precision})")
    assert(r.metrics.recall > 0.6, s"recall collapsed: ${r.metrics.recall}")
  }

  test("BLAST retains a subset of BCl and equal-or-higher precision") {
    val bclRun = Pipeline.run(ds, bc, Scheme.blastOptimal, "BCl", 25, 25, 1)
    val blastRun = Pipeline.run(ds, bc, Scheme.blastOptimal, "BLAST", 25, 25, 1)
    assert(blastRun.metrics.retained <= bclRun.metrics.retained)
    assert(blastRun.metrics.precision >= bclRun.metrics.precision - 1e-12)
  }

  test("RCNP retains no more pairs than CNP") {
    val cnpRun = Pipeline.run(ds, bc, Scheme.rcnpOptimal, "CNP", 25, 25, 1)
    val rcnpRun = Pipeline.run(ds, bc, Scheme.rcnpOptimal, "RCNP", 25, 25, 1)
    assert(rcnpRun.metrics.retained <= cnpRun.metrics.retained)
    assert(rcnpRun.metrics.precision >= cnpRun.metrics.precision - 1e-12)
  }

  test("run reports a positive runtime and a trained model") {
    val r = Pipeline.run(ds, bc, Scheme.blastOptimal, "BLAST", 25, 25, 2)
    assert(r.runtimeSec > 0)
    assert(r.model.weights.length === Scheme.featureColumns(Scheme.blastOptimal).size)
  }

  test("run releases the feature table it materializes") {
    val sc = spark.sparkContext
    assert(bc.nBlocks > 0) // the blocks are built, and held, before the run
    val before = sc.getRDDStorageInfo.map(_.id).toSet
    Pipeline.run(ds, bc, Scheme.rcnpOptimal, "RCNP", 25, 25, 4)
    val added = sc.getRDDStorageInfo.map(_.id).toSet -- before
    assert(added.isEmpty, s"RDDs still held after the run: $added")
  }

  test("dirty ER end-to-end") {
    val dd = ErSynth.dirty(spark, Datasets.unitDirty)
    val dbc = BlockStats.build(dd)
    val blocking = Pipeline.blockingMetrics(dd, dbc)
    val r = Pipeline.run(dd, dbc, Scheme.blastOptimal, "BLAST", 25, 25, 1)
    assert(blocking.recall > 0.8)
    assert(r.metrics.precision > blocking.precision)
    assert(r.metrics.recall > 0.6)
  }

  test("different training seeds give different but sane results") {
    val runs = Seq(1L, 2L, 3L).map(s =>
      Pipeline.run(ds, bc, Scheme.blastOptimal, "BLAST", 25, 25, s).metrics)
    assert(runs.map(_.recall).forall(_ > 0.5))
    assert(runs.map(_.f1).forall(_ > 0.1))
  }
}
