package repro.core

import repro.{Fixtures, SparkSpec}
import repro.blocking.BlockStats
import repro.er.{Datasets, ErSynth}

/** The driver-side sweep path must reproduce the DataFrame path exactly:
  * same training sample, same model, same probabilities, same retained pair
  * set for all eight pruning algorithms, on both ER flavours.
  */
class LocalSweepEquivalenceSpec extends SparkSpec {

  private def preparedCc = {
    val ds = ErSynth.cleanClean(spark, Datasets.unitCc)
    val bc = BlockStats.build(ds)
    val labeled = Features.labeled(Features.compute(bc, Scheme.all), ds.groundTruth).localCheckpoint()
    (ds, bc, labeled)
  }

  private def preparedDirty = {
    val ds = ErSynth.dirty(spark, Datasets.unitDirty)
    val bc = BlockStats.build(ds)
    val labeled = Features.labeled(Features.compute(bc, Scheme.all), ds.groundTruth).localCheckpoint()
    (ds, bc, labeled)
  }

  private def localRetained(lp: LocalSweep.LocalPairs, probs: Array[Double],
                            algo: String): Set[(Long, Long)] =
    LocalSweep.prune(lp, probs, algo).map(p => (lp.i(p), lp.j(p))).toSet

  private def checkAll(tag: String, ds: repro.er.ErDataset,
                       bc: repro.blocking.BlockCollection,
                       labeled: org.apache.spark.sql.DataFrame,
                       schemes: Seq[Scheme], seed: Long): Unit = {
    val nDup = ds.groundTruth.count()
    val lp = LocalSweep.collect(labeled, Scheme.all, bc, nDup)
    val cols = Scheme.featureColumns(schemes)

    // 1. The training samples must be identical.
    val dfTs = Trainer.sample(labeled, cols, 25, 25, seed)
    val colIdx = cols.map(lp.columnIndex).toArray
    val localTs = LocalSweep.sample(lp, colIdx, 25, 25, seed)
    assert(dfTs.x.map(_.toSeq).toSeq === localTs.x.map(_.toSeq).toSeq,
      s"$tag: training features differ")
    assert(dfTs.y.toSeq === localTs.y.toSeq, s"$tag: training labels differ")

    // 2. Models and probabilities are then identical by construction; verify
    //    the retained sets algorithm by algorithm.
    val model = LogisticRegression.train(dfTs.featureNames, dfTs.x, dfTs.y)
    val scored = Trainer.score(labeled, model)
    val (localModel, probs) = LocalSweep.trainAndScore(lp, schemes, 25, 25, seed)
    assert(model.weights.toSeq === localModel.weights.toSeq, s"$tag: weights differ")

    for (algo <- Pruning.weightBased ++ Pruning.cardinalityBased) {
      val df = Fixtures.pairSet(Pruning.byName(algo, scored, bc.cepK, bc.cnpK))
      val local = localRetained(lp, probs, algo)
      assert(df === local,
        s"$tag/$algo: DataFrame and local retained sets differ " +
          s"(${df.size} vs ${local.size}; df-only=${df.diff(local).take(3)}, " +
          s"local-only=${local.diff(df).take(3)})")
    }

    // 3. And the end-to-end metrics agree.
    for (algo <- Seq("BLAST", "RCNP")) {
      val dfRun = Pipeline.run(ds, bc, schemes, algo, 25, 25, seed)
      val localRun = LocalSweep.run(lp, schemes, algo, 25, 25, seed)
      assert(dfRun.metrics.retained === localRun.retained, s"$tag/$algo retained")
      assert(dfRun.metrics.truePositives === localRun.truePositives, s"$tag/$algo tp")
    }
  }

  test("clean-clean: all algorithms agree between paths (BLAST features)") {
    val (ds, bc, labeled) = preparedCc
    checkAll("cc", ds, bc, labeled, Scheme.blastOptimal, seed = 1)
    labeled.unpersist()
  }

  test("clean-clean: all algorithms agree with the [21] feature set") {
    val (ds, bc, labeled) = preparedCc
    checkAll("cc-smb", ds, bc, labeled, Scheme.smbOriginal, seed = 2)
    labeled.unpersist()
  }

  test("dirty: all algorithms agree between paths") {
    val (ds, bc, labeled) = preparedDirty
    checkAll("dirty", ds, bc, labeled, Scheme.rcnpOptimal, seed = 3)
    labeled.unpersist()
  }
}
