package repro.core

import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}
import repro.Fixtures.Scored

/** Pins every pruning algorithm to hand-worked expectations over the
  * [[Fixtures.scoredRows]] table, on both interpreters of a rule: the
  * DataFrame path ([[Pruning.apply]]) and the driver path
  * ([[LocalSweep.prune]]).
  *
  *   (1,101,.90) (1,102,.60) (1,103,.55) (2,101,.70) (2,102,.70)
  *   (3,103,.45 invalid) (4,104,.50)
  *
  * Valid pairs: 6. Global mean = (.90+.60+.55+.70+.70+.50)/6 = 0.658333.
  * Entity averages: 1→.68333, 2→.70, 3(101)→.80, 102→.65, 103→.55, 4/104→.50.
  * Entity maxima:   1→.90, 2→.70, 101→.90, 102→.70, 103→.55, 4/104→.50.
  */
class PruningSpec extends SparkSpec {

  private lazy val scored = Fixtures.scoredPairs(spark)
  private def run(df: org.apache.spark.sql.DataFrame) = Fixtures.pairSet(df)
  private def rule(name: String) = Pruning.rule(name)

  /** The pairs of `rows` that `rule` keeps, after checking that the DataFrame
    * and driver interpreters keep the same ones.
    */
  private def kept(rule: Pruning.Rule, cepK: Long = 100, cnpK: Long = 10,
                   rows: Seq[Scored] = Fixtures.scoredRows): Set[(Long, Long)] = {
    import spark.implicits._
    val df = run(Pruning(rule, rows.toDF(), cepK, cnpK))
    val lp = Fixtures.localPairs(rows, cepK, cnpK)
    val local = LocalSweep.prune(lp, rows.map(_.prob).toArray, rule)
      .map(p => (lp.i(p), lp.j(p))).toSet
    assert(df === local, s"$rule: DataFrame path kept $df, driver path kept $local")
    df
  }

  private val allValid = Set(
    (1L, 101L), (1L, 102L), (1L, 103L), (2L, 101L), (2L, 102L), (4L, 104L))

  test("validity gate: pairs below 0.5 never survive any algorithm") {
    for (algo <- Pruning.weightBased ++ Pruning.cardinalityBased) {
      assert(!kept(rule(algo)).contains((3L, 103L)), s"$algo retained an invalid pair")
    }
  }

  test("BCl keeps exactly the valid pairs, including prob == 0.5") {
    assert(kept(rule("BCl")) === allValid)
  }

  test("WEP keeps pairs at or above the global valid mean") {
    // mean = 0.6583; keep .90, .70, .70
    assert(kept(rule("WEP")) === Set((1L, 101L), (2L, 101L), (2L, 102L)))
  }

  test("WEP on an all-invalid table is empty") {
    assert(kept(rule("WEP"), rows = Seq(Scored(1, 2, 0.3))) === Set.empty[(Long, Long)])
  }

  test("WNP keeps pairs reaching either endpoint average") {
    // (1,101): .90 >= .68 keep; (1,102): .60 < .68 but < .65 too -> drop? .60 < .65 drop
    // (1,103): .55 < .68 but == avg(103)=.55 keep; (2,101): .70 >= .70 keep
    // (2,102): .70 >= .70 keep; (4,104): .50 >= .50 keep
    assert(kept(rule("WNP")) === Set(
      (1L, 101L), (1L, 103L), (2L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("RWNP requires both endpoint averages") {
    // (1,101): .90 >= .68 and >= .80 keep; (1,103): .55 < .68 drop
    // (2,101): .70 >= .70 but < .80 drop; (2,102): .70>=.70 and >=.65 keep
    // (4,104): both averages .50 keep
    assert(kept(rule("RWNP")) === Set((1L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("RWNP is a subset of WNP which is a subset of BCl") {
    val bcl = kept(rule("BCl"))
    val wnp = kept(rule("WNP"))
    val rwnp = kept(rule("RWNP"))
    assert(rwnp.subsetOf(wnp))
    assert(wnp.subsetOf(bcl))
  }

  test("BLAST keeps valid pairs reaching r*(max_i + max_j)") {
    // r=0.35: (1,101): thr .35*1.8=.63 keep .90; (1,102): .35*1.6=.56, .60 keep
    // (1,103): .35*1.45=.5075, .55 keep; (2,101): .35*1.6=.56, .70 keep
    // (2,102): .35*1.4=.49, .70 keep; (4,104): .35*1.0=.35, .50 keep
    assert(kept(rule("BLAST")) === allValid)
  }

  test("BLAST with r=0.5 keeps only pairs matching both maxima scaled") {
    // thr: (1,101): .90 keep; (1,102): .80 drop; (1,103): .725 drop
    // (2,101): .80 drop; (2,102): .70 keep; (4,104): .50 keep
    assert(kept(Pruning.Blast(0.5)) === Set((1L, 101L), (2L, 102L), (4L, 104L)))
  }

  test("CEP keeps the global top-K by probability with deterministic ties") {
    // order: .90(1,101), .70(2,101), .70(2,102), .60(1,102), .55(1,103), .50(4,104)
    assert(kept(rule("CEP"), cepK = 3) === Set((1L, 101L), (2L, 101L), (2L, 102L)))
    assert(kept(rule("CEP"), cepK = 1) === Set((1L, 101L)))
    assert(kept(rule("CEP"), cepK = 0) === Set.empty[(Long, Long)])
    assert(kept(rule("CEP"), cepK = 100).size === 6)
  }

  test("CEP with K beyond Int range keeps every valid pair, as BCl does") {
    assert(kept(rule("CEP"), cepK = (1L << 31) + 1) === kept(rule("BCl")))
  }

  test("every algorithm carries label after (i, j) and keeps the same pairs") {
    val labeled = scored.withColumn("label", (col("prob") > 0.65).cast("int"))
    val labels = labeled.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getInt(3)).toMap
    for (algo <- Pruning.weightBased ++ Pruning.cardinalityBased) {
      val withLabel = Pruning.byName(algo, labeled, cepK = 3, cnpK = 1)
      assert(withLabel.columns.toSeq === Seq("i", "j", "label"), algo)
      assert(run(withLabel) === run(Pruning.byName(algo, scored, cepK = 3, cnpK = 1)), algo)
      withLabel.collect().foreach { r =>
        assert(r.getInt(2) === labels((r.getLong(0), r.getLong(1))), s"$algo label of $r")
      }
    }
  }

  test("CNP keeps pairs in either endpoint's top-k queue") {
    // k=1 queues: e1→(1,101); e2→(2,101) (tie .70/.70 broken by j asc);
    // e101→(1,101); e102→(2,102); e103→(1,103); e4/104→(4,104)
    assert(kept(rule("CNP"), cnpK = 1) === Set(
      (1L, 101L), (2L, 101L), (2L, 102L), (1L, 103L), (4L, 104L)))
  }

  test("RCNP requires both queues (k=1)") {
    // mutual: (1,101) in Q1 and Q101; (4,104) mutual; (2,101)? Q101 top is (1,101) no.
    // (2,102): Q2 top is (2,101) no. (1,103): Q1 top is (1,101) no.
    assert(kept(rule("RCNP"), cnpK = 1) === Set((1L, 101L), (4L, 104L)))
  }

  test("RCNP is a subset of CNP") {
    for (k <- Seq(1L, 2L, 3L)) {
      val cnp = kept(rule("CNP"), cnpK = k)
      val rcnp = kept(rule("RCNP"), cnpK = k)
      assert(rcnp.subsetOf(cnp), s"k=$k")
    }
  }

  test("large k makes CNP and RCNP keep all valid pairs") {
    assert(kept(rule("CNP"), cnpK = 100).size === 6)
    assert(kept(rule("RCNP"), cnpK = 100).size === 6)
  }

  test("byName dispatches every algorithm and rejects unknown names") {
    for (algo <- Pruning.weightBased ++ Pruning.cardinalityBased)
      Pruning.byName(algo, scored, 10, 2).collect()
    intercept[IllegalArgumentException] {
      Pruning.byName("nope", scored, 10, 2)
    }
  }

  test("WEP matches DuckDB") {
    Oracle.assertEquivalent(
      Pruning.byName("WEP", scored, 100, 10),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), m AS (SELECT AVG(p) AS mp FROM v)
        |SELECT i, j FROM v, m WHERE p >= mp
        |""".stripMargin,
      "scored" -> scored)
  }

  test("WNP matches DuckDB") {
    Oracle.assertEquivalent(
      Pruning.byName("WNP", scored, 100, 10),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), pe AS (
        |  SELECT i AS eid, p FROM v UNION ALL SELECT j AS eid, p FROM v
        |), av AS (SELECT eid, AVG(p) AS ap FROM pe GROUP BY eid)
        |SELECT v.i AS i, v.j AS j FROM v
        |JOIN av ai ON ai.eid = v.i
        |JOIN av aj ON aj.eid = v.j
        |WHERE v.p >= ai.ap OR v.p >= aj.ap
        |""".stripMargin,
      "scored" -> scored)
  }

  test("BLAST matches DuckDB") {
    Oracle.assertEquivalent(
      Pruning.byName("BLAST", scored, 100, 10),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), pe AS (
        |  SELECT i AS eid, p FROM v UNION ALL SELECT j AS eid, p FROM v
        |), mx AS (SELECT eid, MAX(p) AS mp FROM pe GROUP BY eid)
        |SELECT v.i AS i, v.j AS j FROM v
        |JOIN mx mi ON mi.eid = v.i
        |JOIN mx mj ON mj.eid = v.j
        |WHERE v.p >= 0.35 * (mi.mp + mj.mp)
        |""".stripMargin,
      "scored" -> scored)
  }

  test("CNP matches DuckDB (window formulation)") {
    Oracle.assertEquivalent(
      Pruning.byName("CNP", scored, 100, 2),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), pe AS (
        |  SELECT i AS eid, i, j, p FROM v UNION ALL SELECT j AS eid, i, j, p FROM v
        |), rk AS (
        |  SELECT eid, i, j,
        |         ROW_NUMBER() OVER (PARTITION BY eid ORDER BY p DESC, i ASC, j ASC) AS r
        |  FROM pe
        |)
        |SELECT DISTINCT i, j FROM rk WHERE r <= 2
        |""".stripMargin,
      "scored" -> scored)
  }

  test("RCNP matches DuckDB (window formulation)") {
    Oracle.assertEquivalent(
      Pruning.byName("RCNP", scored, 100, 2),
      """WITH v AS (
        |  SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
        |         CAST(prob AS DOUBLE) AS p
        |  FROM scored WHERE CAST(prob AS DOUBLE) >= 0.5
        |), pe AS (
        |  SELECT i AS eid, i, j, p FROM v UNION ALL SELECT j AS eid, i, j, p FROM v
        |), rk AS (
        |  SELECT eid, i, j,
        |         ROW_NUMBER() OVER (PARTITION BY eid ORDER BY p DESC, i ASC, j ASC) AS r
        |  FROM pe
        |), kept AS (SELECT eid, i, j FROM rk WHERE r <= 2)
        |SELECT a.i AS i, a.j AS j
        |FROM kept a JOIN kept b ON a.i = b.i AND a.j = b.j
        |WHERE a.eid = a.i AND b.eid = b.j
        |""".stripMargin,
      "scored" -> scored)
  }

  test("dirty-style ids (entity on both sides) aggregate into one node") {
    // Entity 5 appears as j in one pair and i in another; its average must
    // cover both: avg(0.9, 0.5) = 0.7.
    val rows = Seq(Scored(1, 5, 0.9), Scored(5, 9, 0.5), Scored(2, 9, 0.8))
    // (1,5): >= avg(1)=.9 and avg(5)=.7 keep. (5,9): .5 < .7 drop.
    // (2,9): >= avg(2)=.8, avg(9)=avg(.5,.8)=.65 keep.
    assert(kept(rule("RWNP"), rows = rows) === Set((1L, 5L), (2L, 9L)))
  }
}
