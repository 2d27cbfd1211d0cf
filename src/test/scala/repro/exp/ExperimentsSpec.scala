package repro.exp

import repro.SparkSpec
import repro.core.{Evaluation, LocalSweep, Scheme}
import repro.er.{Datasets, ErSynth}

class ExperimentsSpec extends SparkSpec {

  test("avg and meanMetrics average componentwise") {
    val a = Evaluation.Metrics(0.8, 0.4, 0.5, 100, 40)
    val b = Evaluation.Metrics(0.6, 0.2, 0.3, 200, 60)
    val m = Experiments.meanMetrics(Seq(a, b))
    assert(m.recall === 0.7)
    assert(math.abs(m.precision - 0.3) < 1e-12)
    assert(m.retained === 150)
    assert(m.truePositives === 50)
  }

  test("sweepTable renders the requested number of rows") {
    val rows = (1 to 20).map(m =>
      Experiments.SweepRow(m, Scheme.fromMask(m), 0.9, 0.5, 0.6 - m * 0.001))
    val table = Experiments.sweepTable(rows, top = 10)
    assert(table.linesIterator.size === 11) // header + 10
    assert(table.contains("Feature set"))
  }

  test("modelTable includes coefficients, intercept and counts") {
    val rows = Seq(
      Experiments.ModelRow(1, Map("cfibf" -> 1.5, "rs" -> -2.0), 0.3, 1000, 800),
      Experiments.ModelRow(2, Map("cfibf" -> 1.1, "rs" -> -1.0), 0.1, 900, 790))
    val t = Experiments.modelTable(rows)
    assert(t.contains("cfibf"))
    assert(t.contains("Intercept"))
    assert(t.contains("Candidate pairs"))
    assert(t.contains("800"))
  }

  test("scalabilityTable renders one line per row") {
    val rows = Seq(Experiments.ScalabilityRow("D10K-A", 1000, "BCl",
      Evaluation.Metrics(0.9, 0.1, 0.18, 500, 90), 2.0, 1.0))
    val t = Experiments.scalabilityTable(rows)
    assert(t.contains("D10K-A"))
    assert(t.contains("Speedup"))
  }

  test("featureSweep ranks all 255 masks by F1 on a tiny in-memory table") {
    // Feature cfibf separates labels perfectly; any subset containing it
    // should do well. 20 pairs, 10 positive.
    val n = 40
    val lp = LocalSweep.LocalPairs(
      featureNames = Scheme.featureColumns(Scheme.all).toArray,
      i = Array.tabulate(n)(k => k.toLong),
      j = Array.tabulate(n)(k => 1000L + k),
      x = Array.tabulate(n) { k =>
        val pos = k < n / 2
        Scheme.featureColumns(Scheme.all).map {
          case "cfibf" => if (pos) 5.0 + k * 0.01 else 1.0 + k * 0.01
          case _       => 0.5
        }.toArray
      },
      label = Array.tabulate(n)(_ < n / 2),
      nDuplicates = n / 2, cepK = 100, cnpK = 10)
    val ranked = Experiments.featureSweep(Seq(lp), "BCl", perClass = 10, seeds = Seq(1L))
    assert(ranked.size === 255)
    assert(ranked.map(_.mask).toSet === (1 to 255).toSet)
    // The best set must contain the informative feature and score perfectly.
    assert(ranked.head.schemes.contains(Scheme.CFIBF))
    assert(ranked.head.f1 === 1.0)
    // The all-uninformative set (any mask without CF-IBF) cannot be perfect.
    val worst = ranked.find(r => !r.schemes.contains(Scheme.CFIBF)).get
    assert(worst.f1 < 1.0)
  }

  test("finalsTable includes per-config blocks and averages") {
    val cfg = Experiments.table5Configs
    val rows = for (d <- Seq("X", "Y"); c <- cfg) yield
      Experiments.FinalRow(d, c.label, Evaluation.Metrics(0.9, 0.2, 0.33, 10, 9), 1.0)
    val t = Experiments.finalsTable(rows, cfg)
    assert(t.contains("BLAST"))
    assert(t.contains("BCl2"))
    assert(t.contains("(average)"))
    assert(t.contains("train=25/class"))
    assert(t.contains("5% of |D| /class"))
  }

  test("Prepared.unpersist frees the tables prepare materialized") {
    val sc = spark.sparkContext
    val ds = ErSynth.dirty(spark, Datasets.unitDirty)
    val before = sc.getRDDStorageInfo.map(_.id).toSet
    val p = Experiments.prepare(ds)
    assert((sc.getRDDStorageInfo.map(_.id).toSet -- before).nonEmpty,
      "prepare should hold its blocks and features")
    p.unpersist()
    val added = sc.getRDDStorageInfo.map(_.id).toSet -- before
    assert(added.isEmpty, s"RDDs still held after unpersist: $added")
  }
}
