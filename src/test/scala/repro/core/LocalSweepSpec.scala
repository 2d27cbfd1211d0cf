package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures

/** Unit tests of the driver-side path over the hand-worked scored table of
  * PruningSpec (which also checks that both pruning interpreters agree):
  * pruning by name, sampling, metrics and run.
  */
class LocalSweepSpec extends AnyFunSuite {

  /** [[Fixtures.scoredRows]] and their probabilities; the pairs in
    * `positives` are labelled duplicates, of 4 in the ground truth.
    */
  private def fixture(positives: Set[(Long, Long)] = Set((1L, 101L), (2L, 102L), (4L, 104L)),
                      cepK: Long = 100, cnpK: Long = 10): (LocalSweep.LocalPairs, Array[Double]) =
    (Fixtures.localPairs(Fixtures.scoredRows, cepK, cnpK, positives, nDuplicates = 4),
      Fixtures.scoredRows.map(_.prob).toArray)

  private def pairs(lp: LocalSweep.LocalPairs, kept: Array[Int]): Set[(Long, Long)] =
    kept.map(p => (lp.i(p), lp.j(p))).toSet

  test("BCl keeps the valid pairs") {
    val (lp, probs) = fixture()
    assert(pairs(lp, LocalSweep.prune(lp, probs, "BCl")) === Set(
      (1L, 101L), (1L, 102L), (1L, 103L), (2L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("WEP keeps pairs at or above the valid mean") {
    val (lp, probs) = fixture()
    assert(pairs(lp, LocalSweep.prune(lp, probs, "WEP")) === Set(
      (1L, 101L), (2L, 101L), (2L, 102L)))
  }

  test("WNP / RWNP endpoint-average semantics") {
    val (lp, probs) = fixture()
    assert(pairs(lp, LocalSweep.prune(lp, probs, "WNP")) === Set(
      (1L, 101L), (1L, 103L), (2L, 101L), (2L, 102L), (4L, 104L)))
    assert(pairs(lp, LocalSweep.prune(lp, probs, "RWNP")) === Set(
      (1L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("BLAST at r = 0.35 and r = 0.5") {
    val (lp, probs) = fixture()
    assert(LocalSweep.prune(lp, probs, "BLAST").length === 6)
    assert(pairs(lp, LocalSweep.prune(lp, probs, Pruning.Blast(0.5))) === Set(
      (1L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("CEP with small K keeps the top-weighted with deterministic ties") {
    val (lp, probs) = fixture(cepK = 3)
    assert(pairs(lp, LocalSweep.prune(lp, probs, "CEP")) === Set(
      (1L, 101L), (2L, 101L), (2L, 102L)))
  }

  test("CNP / RCNP with k = 1") {
    val (lp, probs) = fixture(cnpK = 1)
    assert(pairs(lp, LocalSweep.prune(lp, probs, "CNP")) === Set(
      (1L, 101L), (2L, 101L), (2L, 102L), (1L, 103L), (4L, 104L)))
    assert(pairs(lp, LocalSweep.prune(lp, probs, "RCNP")) === Set(
      (1L, 101L), (4L, 104L)))
  }

  test("unknown algorithm is rejected") {
    val (lp, probs) = fixture()
    intercept[IllegalArgumentException] { LocalSweep.prune(lp, probs, "nope") }
  }

  test("metricsOf counts true positives against labels") {
    val (lp, probs) = fixture()
    val m = LocalSweep.metricsOf(lp, LocalSweep.prune(lp, probs, "BCl"))
    // retained 6, of which (1,101),(2,102),(4,104) are labelled positive.
    assert(m.retained === 6)
    assert(m.truePositives === 3)
    assert(m.recall === 3.0 / 4)
    assert(m.precision === 0.5)
  }

  test("columnIndex rejects unknown features") {
    val (lp, _) = fixture()
    intercept[IllegalArgumentException] { lp.columnIndex("unknown") }
    assert(lp.columnIndex("cfibf") === 0)
  }

  test("sample balances classes and is deterministic") {
    val (lp, _) = fixture()
    val ts = LocalSweep.sample(lp, Array(0), nPos = 2, nNeg = 2, seed = 9)
    assert(ts.y.count(_ == 1) === 2)
    assert(ts.y.count(_ == 0) === 2)
    val ts2 = LocalSweep.sample(lp, Array(0), 2, 2, seed = 9)
    assert(ts.x.map(_.toSeq).toSeq === ts2.x.map(_.toSeq).toSeq)
  }

  test("sample without a positive pair fails with a clear error") {
    val (lp, _) = fixture(positives = Set.empty)
    val e = intercept[IllegalArgumentException] { LocalSweep.sample(lp, Array(0), 2, 2, seed = 9) }
    assert(e.getMessage.contains("needs pairs of both classes"))
  }

  test("run produces metrics on a trivially separable table") {
    val (lp, _) = fixture()
    // feature = prob itself: perfectly informative for labels? Not exactly,
    // but run() must complete and produce metrics in range.
    val m = LocalSweep.run(lp, Seq(Scheme.CFIBF), "BCl", 2, 2, 1)
      .ensuring(_ != null)
    assert(m.recall >= 0 && m.recall <= 1)
    assert(m.precision >= 0 && m.precision <= 1)
  }
}
