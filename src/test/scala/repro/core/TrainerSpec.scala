package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.blocking.BlockStats
import repro.er.{Datasets, ErSynth}

class TrainerSpec extends SparkSpec {

  private lazy val ds = ErSynth.cleanClean(spark, Datasets.unitCc)
  private lazy val bc = BlockStats.build(ds)
  private lazy val labeled =
    Features.labeled(Features.compute(bc, Scheme.all), ds.groundTruth).localCheckpoint()

  private val cols = Scheme.featureColumns(Scheme.blastOptimal)

  private def train(perClass: Int, seed: Long): LRModel = {
    val ts = Trainer.sample(labeled, cols, perClass, perClass, seed)
    LogisticRegression.train(ts.featureNames, ts.x, ts.y)
  }

  test("sample returns the requested class balance") {
    val ts = Trainer.sample(labeled, cols, nPos = 25, nNeg = 25, seed = 1)
    assert(ts.size === 50)
    assert(ts.y.count(_ == 1) === 25)
    assert(ts.y.count(_ == 0) === 25)
  }

  test("sampling is deterministic in the seed") {
    val a = Trainer.sample(labeled, cols, 20, 20, seed = 7)
    val b = Trainer.sample(labeled, cols, 20, 20, seed = 7)
    assert(a.x.map(_.toSeq).toSeq === b.x.map(_.toSeq).toSeq)
    assert(a.y.toSeq === b.y.toSeq)
  }

  test("different seeds draw different samples") {
    val a = Trainer.sample(labeled, cols, 20, 20, seed = 1)
    val b = Trainer.sample(labeled, cols, 20, 20, seed = 2)
    assert(a.x.map(_.toSeq).toSeq !== b.x.map(_.toSeq).toSeq)
  }

  test("requesting more positives than exist returns all of them") {
    val nPos = labeled.filter(col("label") === 1).count().toInt
    val ts = Trainer.sample(labeled, cols, nPos + 1000, 10, seed = 1)
    assert(ts.y.count(_ == 1) === nPos)
  }

  test("a sample without a positive pair fails with a clear error") {
    val negatives = labeled.filter(col("label") === 0)
    val e = intercept[IllegalArgumentException] { Trainer.sample(negatives, cols, 10, 10, seed = 1) }
    assert(e.getMessage.contains("needs pairs of both classes"))
  }

  test("feature vectors come back in the requested column order") {
    val ts = Trainer.sample(labeled, Seq("js", "cfibf"), 5, 5, seed = 3)
    assert(ts.featureNames === Seq("js", "cfibf"))
    // js is bounded by 1; cfibf can exceed 1 — check the columns aren't swapped.
    assert(ts.x.forall(r => r(0) <= 1.0 + 1e-9))
  }

  test("fit produces a model that separates the classes on average") {
    val model = train(perClass = 25, seed = 1)
    val scored = Trainer.score(labeled, model)
    val byLabel = scored.groupBy("label").agg(avg("prob")).collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    assert(byLabel(1) > byLabel(0) + 0.2,
      s"positives ${byLabel(1)} vs negatives ${byLabel(0)}")
  }

  test("score adds a prob column in [0,1] for every pair") {
    val model = train(25, 1)
    val scored = Trainer.score(labeled, model)
    assert(scored.count() === labeled.count())
    assert(scored.filter(col("prob") < 0 || col("prob") > 1).count() === 0)
  }

  test("Catalyst scoring matches driver-side scoring exactly") {
    val model = train(25, 2)
    val rows = Trainer.score(labeled, model)
      .select((cols.map(c => col(c).cast("double")) :+ col("prob")): _*)
      .limit(500).collect()
    rows.foreach { r =>
      val x = cols.indices.map(r.getDouble).toArray
      assert(math.abs(model.probability(x) - r.getDouble(cols.size)) < 1e-12)
    }
  }
}
