package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** The supervised pruning algorithms of §3, operating on a scored pair table
  * (i, j, prob) where `prob` is the probabilistic classifier's output.
  * Each returns the retained pairs as (i, j), or as (i, j, label) when the
  * scored table has a `label` column, so a run can count its true positives
  * without a join against the ground truth.
  *
  * Every algorithm first restricts to the *valid* pairs (prob ≥ 0.5,
  * Definition 2) and then applies its weight- or cardinality-based criterion.
  * All are expressed as DataFrame operations: global/grouped aggregations for
  * the weight thresholds, window ranks for the per-entity top-k queues.
  *
  * Tie-breaking for the cardinality algorithms is deterministic:
  * (prob desc, i asc, j asc) — see DESIGN.md §5.
  */
object Pruning {

  /** Names of all eight algorithms, in the paper's presentation order. */
  val weightBased: Seq[String] = Seq("BCl", "WEP", "WNP", "RWNP", "BLAST")
  val cardinalityBased: Seq[String] = Seq("CEP", "CNP", "RCNP")

  /** BLAST's pruning ratio (§5.2: r = 0.35, from preliminary experiments). */
  val BlastRatio = 0.35

  private def valid(scored: DataFrame): DataFrame =
    scored.filter(col("prob") >= 0.5)

  /** The output columns: (i, j), plus `label` when the input carries it. */
  private def outCols(scored: DataFrame): Seq[Column] =
    Seq(col("i"), col("j")) ++ scored.columns.find(_ == "label").map(col)

  /** Explode each pair into one row per endpoint entity, with `cols`. */
  private def perEntity(pairs: DataFrame, cols: Seq[Column]): DataFrame =
    pairs.select(col("i").as("eid") +: cols: _*)
      .union(pairs.select(col("j").as("eid") +: cols: _*))

  // ------------------------------------------------------------- weight-based

  /** BCl — the baseline of [21]: retain every pair the classifier labels
    * positive (prob ≥ 0.5). Approximates WEP with a global 0.5 threshold.
    */
  def bcl(scored: DataFrame): DataFrame = valid(scored).select(outCols(scored): _*)

  /** Supervised Weighted Edge Pruning (Algorithm 1): retain pairs whose
    * probability reaches the average probability of the valid pairs.
    */
  def wep(scored: DataFrame): DataFrame = {
    val v = valid(scored)
    val mean = v.agg(avg("prob")).collect()(0)
    if (mean.isNullAt(0)) v.select(outCols(scored): _*).limit(0)
    else v.filter(col("prob") >= mean.getDouble(0)).select(outCols(scored): _*)
  }

  private def withEntityAgg(scored: DataFrame, aggName: String,
                            aggExpr: Column): DataFrame = {
    val v = valid(scored)
    val stats = perEntity(v, Seq(col("prob"))).groupBy("eid").agg(aggExpr.as(aggName))
    v.join(stats.select(col("eid").as("i"), col(aggName).as(aggName + "_i")), "i")
      .join(stats.select(col("eid").as("j"), col(aggName).as(aggName + "_j")), "j")
  }

  /** Supervised Weighted Node Pruning (Algorithm 2): retain a valid pair if
    * its probability reaches the average valid probability of *either*
    * endpoint entity.
    */
  def wnp(scored: DataFrame): DataFrame =
    withEntityAgg(scored, "pbar", avg("prob"))
      .filter(col("prob") >= col("pbar_i") || col("prob") >= col("pbar_j"))
      .select(outCols(scored): _*)

  /** Reciprocal WNP (§3.1): the probability must reach *both* endpoint
    * averages — consistently deeper pruning than WNP.
    */
  def rwnp(scored: DataFrame): DataFrame =
    withEntityAgg(scored, "pbar", avg("prob"))
      .filter(col("prob") >= col("pbar_i") && col("prob") >= col("pbar_j"))
      .select(outCols(scored): _*)

  /** Supervised BLAST (Algorithm 3): retain a valid pair if its probability
    * reaches r · (max_i + max_j), the scaled sum of the endpoints' maximum
    * valid probabilities.
    */
  def blast(scored: DataFrame, r: Double = BlastRatio): DataFrame =
    withEntityAgg(scored, "pmax", max("prob"))
      .filter(col("prob") >= lit(r) * (col("pmax_i") + col("pmax_j")))
      .select(outCols(scored): _*)

  // -------------------------------------------------------- cardinality-based

  /** Supervised Cardinality Edge Pruning (Algorithm 4): keep the K
    * top-weighted valid pairs globally; K = ⌊Σ|b|/2⌋ over the input blocks.
    * K is clamped at `Int.MaxValue` (as in [[LocalSweep]]); a larger K keeps
    * every valid pair anyway.
    */
  def cep(scored: DataFrame, k: Long): DataFrame = {
    require(k >= 0)
    if (k == 0) scored.select(outCols(scored): _*).limit(0)
    else valid(scored)
      .orderBy(col("prob").desc, col("i").asc, col("j").asc)
      .limit(math.min(k, Int.MaxValue.toLong).toInt)
      .select(outCols(scored): _*)
  }

  /** Per-entity top-k membership: rank each entity's valid pairs by
    * probability and keep ranks ≤ k — the contents of Algorithm 5's
    * per-entity priority queues.
    */
  private def topKPerEntity(scored: DataFrame, k: Long): DataFrame = {
    val w = Window.partitionBy("eid")
      .orderBy(col("prob").desc, col("i").asc, col("j").asc)
    perEntity(valid(scored), outCols(scored) :+ col("prob"))
      .withColumn("rnk", row_number().over(w))
      .filter(col("rnk") <= k)
      .select(col("eid") +: outCols(scored): _*)
  }

  /** Supervised Cardinality Node Pruning (Algorithm 5): retain a valid pair
    * contained in the top-k queue of *either* endpoint;
    * k = max(1, ⌊Σ|b| / (|E1|+|E2|)⌋).
    */
  def cnp(scored: DataFrame, k: Long): DataFrame =
    topKPerEntity(scored, k).select(outCols(scored): _*).distinct()

  /** Reciprocal CNP (§3.2): the pair must sit in the top-k queue of *both*
    * endpoints.
    */
  def rcnp(scored: DataFrame, k: Long): DataFrame = {
    val member = topKPerEntity(scored, k)
    val byI = member.filter(col("eid") === col("i")).select(outCols(scored): _*)
    val byJ = member.filter(col("eid") === col("j")).select(outCols(scored): _*)
    byI.intersect(byJ)
  }

  /** Dispatch by algorithm name (as listed in [[weightBased]] and
    * [[cardinalityBased]]).
    *
    * @param cepK CEP's global budget K
    * @param cnpK CNP/RCNP's per-entity budget k
    */
  def byName(name: String, scored: DataFrame, cepK: Long, cnpK: Long,
             r: Double = BlastRatio): DataFrame = name match {
    case "BCl"   => bcl(scored)
    case "WEP"   => wep(scored)
    case "WNP"   => wnp(scored)
    case "RWNP"  => rwnp(scored)
    case "BLAST" => blast(scored, r)
    case "CEP"   => cep(scored, cepK)
    case "CNP"   => cnp(scored, cnpK)
    case "RCNP"  => rcnp(scored, cnpK)
    case other   => throw new IllegalArgumentException(s"unknown algorithm $other")
  }
}
