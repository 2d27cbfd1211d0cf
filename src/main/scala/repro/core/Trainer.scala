package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Balanced training-set construction via undersampling (§1.1, §5.1): sample
  * `nPos` positive and `nNeg` negative candidate pairs from the labeled
  * feature table, for [[LogisticRegression.train]]. Sampling is deterministic
  * in `seed`: rows are ordered by [[Hashing.pairKey]] (a uniform pseudo-random
  * permutation), the same function [[LocalSweep.sample]] orders by.
  */
object Trainer {

  /** A collected training set, ready for [[LogisticRegression.train]]. It
    * holds pairs of both classes: a classifier needs both to learn from.
    */
  final case class TrainingSet(
      featureNames: Seq[String],
      x: Array[Array[Double]],
      y: Array[Int],
  ) {
    require(y.contains(1) && y.contains(0), "the training sample needs pairs of both " +
      s"classes but holds ${y.count(_ == 1)} positive and ${y.count(_ == 0)} negative pairs")
    def size: Int = y.length
  }

  /** Both classes are drawn in one query: the two per-class top-n rows are
    * collected together and put in order on the driver.
    *
    * @param labeled output of [[Features.labeled]] — (i, j, features..., label)
    * @param featureCols feature columns, in model order
    * @return positives first, then negatives, each in (pair key, i, j) order
    */
  def sample(
      labeled: DataFrame,
      featureCols: Seq[String],
      nPos: Int,
      nNeg: Int,
      seed: Long,
  ): TrainingSet = {
    val key = Hashing.pairKeyCol(col("i"), col("j"), seed)
    def top(label: Int, n: Int): DataFrame =
      labeled
        .filter(col("label") === label)
        .select(Seq(col("label").cast("int"), key.as("pairKey"), col("i").cast("long"),
          col("j").cast("long")) ++ featureCols.map(c => col(c).cast("double")): _*)
        .orderBy("pairKey", "i", "j")
        .limit(n)

    val rows = top(1, nPos).union(top(0, nNeg)).collect()
      .sortBy(r => (-r.getInt(0), r.getLong(1), r.getLong(2), r.getLong(3)))
    TrainingSet(featureCols,
      rows.map(r => featureCols.indices.map(k => r.getDouble(4 + k)).toArray),
      rows.map(_.getInt(0)))
  }

  /** Score all candidate pairs with the trained model: adds a `prob` column
    * through a pure Catalyst expression (no UDF).
    */
  def score(labeled: DataFrame, model: LRModel): DataFrame =
    labeled.withColumn("prob", model.probabilityColumn)
}
