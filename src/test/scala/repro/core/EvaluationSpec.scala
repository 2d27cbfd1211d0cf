package repro.core

import repro.SparkSpec

class EvaluationSpec extends SparkSpec {
  import spark.implicits._

  private def pairs(xs: (Long, Long)*) = xs.toDF("i", "j")
  private def gt(xs: (Long, Long)*) = xs.toDF("id1", "id2")

  test("perfect retention") {
    val m = Evaluation.evaluate(pairs((1L, 10L), (2L, 11L)), gt((1L, 10L), (2L, 11L)), 2)
    assert(m.recall === 1.0)
    assert(m.precision === 1.0)
    assert(m.f1 === 1.0)
  }

  test("half the duplicates retained among noise") {
    val m = Evaluation.evaluate(
      pairs((1L, 10L), (5L, 50L), (6L, 60L), (7L, 70L)),
      gt((1L, 10L), (2L, 11L)), 2)
    assert(m.recall === 0.5)
    assert(m.precision === 0.25)
    assert(math.abs(m.f1 - 2 * 0.5 * 0.25 / 0.75) < 1e-12)
  }

  test("recall denominator is |D|, not |D ∩ C|") {
    // 4 ground-truth duplicates, only 1 retained, |D| = 4 -> recall 0.25.
    val m = Evaluation.evaluate(pairs((1L, 10L)),
      gt((1L, 10L), (2L, 11L), (3L, 12L), (4L, 13L)), 4)
    assert(m.recall === 0.25)
  }

  test("empty retained set") {
    val m = Evaluation.evaluate(pairs(), gt((1L, 10L)), 1)
    assert(m.recall === 0.0)
    assert(m.precision === 0.0)
    assert(m.f1 === 0.0)
  }

  test("duplicate rows in the retained set are collapsed") {
    val m = Evaluation.evaluate(pairs((1L, 10L), (1L, 10L)), gt((1L, 10L)), 1)
    assert(m.retained === 1)
    assert(m.precision === 1.0)
  }

  test("of() agrees with evaluate() on the same counts") {
    val viaDf = Evaluation.evaluate(
      pairs((1L, 10L), (9L, 90L)), gt((1L, 10L), (2L, 20L)), 2)
    val viaCounts = Evaluation.of(tp = 1, retained = 2, nDuplicates = 2)
    assert(viaDf === viaCounts)
    // A pruning result that carries `label` is evaluated on (i, j) alone.
    val withLabel = Evaluation.evaluate(
      Seq((1L, 10L, 0), (9L, 90L, 0)).toDF("i", "j", "label"), gt((1L, 10L), (2L, 20L)), 2)
    assert(withLabel === viaCounts)
  }

  test("zero duplicates yields zero recall without dividing by zero") {
    assert(Evaluation.of(0, 5, 0).recall === 0.0)
  }

  test("metrics string formatting is stable") {
    val s = Evaluation.of(1, 2, 4).toString
    assert(s.contains("Re=0.2500"))
    assert(s.contains("|C'|=2"))
  }
}
