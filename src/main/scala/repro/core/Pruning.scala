package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.{Window, WindowSpec}
import org.apache.spark.sql.functions._
import scala.collection.immutable.ListMap

/** The supervised pruning algorithms of §3 over a scored pair table
  * (i, j, prob), where `prob` is the probabilistic classifier's output. Each
  * returns the retained pairs as (i, j), or as (i, j, label) when the scored
  * table has a `label` column, so a run can count its true positives without
  * a join against the ground truth.
  *
  * Every algorithm keeps only *valid* pairs (prob ≥ 0.5, Definition 2) and is
  * one [[Rule]]: a global or per-entity statistic s of the valid pairs'
  * probabilities p, and a keep rule. [[rules]] is the one table of the eight:
  *
  * {{{
  * name        scope   statistic s                   keep a valid pair when
  * BCl         -       -                             always
  * WEP         global  mean p                        p >= s
  * CEP         global  rank (p desc, i asc, j asc)   rank <= K
  * WNP / RWNP  entity  mean p of the entity          p >= s at either / both endpoints
  * BLAST       entity  max p of the entity           p >= r * (s_i + s_j)
  * CNP / RCNP  entity  rank in the entity's pairs    rank <= k at either / both endpoints
  * }}}
  *
  * K = ⌊Σ|b|/2⌋ and k = max(1, ⌊Σ|b| / (|E1|+|E2|)⌋) come from the block
  * collection; r = [[BlastRatio]]. A mean is taken no higher than the
  * maximum, which it can only pass by rounding: a group of equal p then
  * reaches its own mean, in whatever order its sum was added up.
  *
  * [[apply]] interprets a rule as DataFrame code; [[LocalSweep.prune]]
  * interprets the same rule on the driver.
  */
object Pruning {

  /** A statistic of valid probabilities: their mean, or a pair's rank. */
  sealed trait Stat
  case object Mean extends Stat
  case object Rank extends Stat

  sealed trait Rule
  /** Keep every valid pair. */
  case object Valid extends Rule
  /** One statistic over all valid pairs. */
  final case class Edge(stat: Stat) extends Rule
  /** One statistic per entity; the pair must pass at either endpoint, or at
    * both when `reciprocal`.
    */
  final case class Node(stat: Stat, reciprocal: Boolean) extends Rule
  /** Keep a pair when p ≥ r · (max_i + max_j). */
  final case class Blast(r: Double) extends Rule

  /** BLAST's pruning ratio (§5.2: r = 0.35, from preliminary experiments). */
  val BlastRatio = 0.35

  /** The eight algorithms, in the paper's presentation order. */
  val rules: ListMap[String, Rule] = ListMap(
    "BCl" -> Valid,
    "WEP" -> Edge(Mean),
    "WNP" -> Node(Mean, reciprocal = false),
    "RWNP" -> Node(Mean, reciprocal = true),
    "BLAST" -> Blast(BlastRatio),
    "CEP" -> Edge(Rank),
    "CNP" -> Node(Rank, reciprocal = false),
    "RCNP" -> Node(Rank, reciprocal = true),
  )

  val cardinalityBased: Seq[String] =
    rules.collect { case (name, Edge(Rank) | Node(Rank, _)) => name }.toSeq
  val weightBased: Seq[String] = rules.keys.filterNot(cardinalityBased.contains).toSeq

  /** The rule of algorithm `name`; throws IllegalArgumentException for any
    * name not in [[rules]].
    */
  def rule(name: String): Rule = rules.getOrElse(name, throw new IllegalArgumentException(
    s"unknown algorithm $name (one of ${rules.keys.mkString(", ")})"))

  /** Prune `scored` with algorithm `name`.
    *
    * @param cepK CEP's global budget K
    * @param cnpK CNP/RCNP's per-entity budget k
    */
  def byName(name: String, scored: DataFrame, cepK: Long, cnpK: Long): DataFrame =
    apply(rule(name), scored, cepK, cnpK)

  /** The pairs of `scored` that `rule` keeps. Per-entity rules explode each
    * valid pair into one row per endpoint, compute the entity's statistic as
    * a window over `eid`, and sum it back per pair.
    */
  def apply(rule: Rule, scored: DataFrame, cepK: Long, cnpK: Long): DataFrame = {
    val out = Seq(col("i"), col("j")) ++ scored.columns.find(_ == "label").map(col)
    val p = col("prob")
    val valid = scored.filter(p >= 0.5)
    val order = Seq(p.desc, col("i").asc, col("j").asc)

    /** Per valid pair, the sum of `perEntity` over its two endpoints, as `s`. */
    def perPair(perEntity: WindowSpec => Column): DataFrame =
      valid.select(explode(array(col("i"), col("j"))).as("eid") +: out :+ p: _*)
        .withColumn("s", perEntity(Window.partitionBy("eid")))
        .groupBy(out :+ p: _*).agg(sum("s").as("s"))

    val kept = rule match {
      case Valid => valid
      case Edge(Mean) => valid.filter(p >= valid.select(least(avg(p), max(p))).scalar())
      case Edge(Rank) =>
        require(cepK >= 0)
        valid.orderBy(order: _*).limit(math.min(cepK, Int.MaxValue.toLong).toInt)
      case Node(stat, reciprocal) =>
        def passes(w: WindowSpec): Column = stat match {
          case Mean => p >= least(avg(p).over(w), max(p).over(w))
          case Rank => row_number().over(w.orderBy(order: _*)) <= cnpK
        }
        perPair(passes(_).cast("int")).filter(col("s") >= (if (reciprocal) 2 else 1))
      case Blast(r) => perPair(w => max(p).over(w)).filter(p >= lit(r) * col("s"))
    }
    kept.select(out: _*)
  }
}
