package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.blocking.{BlockCollection, BlockStats}
import repro.core.LocalSweep

/** Hand-computable micro block collections used across suites.
  *
  * Clean-Clean universe (E1 = {0,1,2}, E2 = {10,11}):
  *   b1 = {0,1 | 10}, b2 = {0 | 10,11}, b3 = {1,2 | 11}, b4 = {0 | 10},
  *   b5 = {2 | } — b5 has ‖b‖ = 0 and must be dropped.
  * Retained: |B| = 4, ‖B‖ = 7, Σ|b| = 11; candidate pairs:
  * (0,10) cb=3, (0,11), (1,10), (1,11), (2,11).
  *
  * Dirty universe (E = {0,1,2,3}):
  *   x = {0,1,2}, y = {0,1}, z = {2,3}, w = {3} (dropped).
  * Retained: |B| = 3, ‖B‖ = 5, Σ|b| = 7; pairs (0,1) cb=2, (0,2), (1,2), (2,3).
  */
object Fixtures {

  final case class Eb(eid: Long, src: Int, bid: String)

  def ccAssignments(spark: SparkSession): DataFrame = {
    import spark.implicits._
    Seq(
      Eb(0, 1, "b1"), Eb(1, 1, "b1"), Eb(10, 2, "b1"),
      Eb(0, 1, "b2"), Eb(10, 2, "b2"), Eb(11, 2, "b2"),
      Eb(1, 1, "b3"), Eb(2, 1, "b3"), Eb(11, 2, "b3"),
      Eb(0, 1, "b4"), Eb(10, 2, "b4"),
      Eb(2, 1, "b5"),
    ).toDF()
  }

  def ccCollection(spark: SparkSession): BlockCollection =
    BlockStats.fromAssignments(ccAssignments(spark), dirty = false, n1 = 3, n2 = 2)

  def dirtyAssignments(spark: SparkSession): DataFrame = {
    import spark.implicits._
    Seq(
      Eb(0, 1, "x"), Eb(1, 1, "x"), Eb(2, 1, "x"),
      Eb(0, 1, "y"), Eb(1, 1, "y"),
      Eb(2, 1, "z"), Eb(3, 1, "z"),
      Eb(3, 1, "w"),
    ).toDF()
  }

  def dirtyCollection(spark: SparkSession): BlockCollection =
    BlockStats.fromAssignments(dirtyAssignments(spark), dirty = true, n1 = 4, n2 = 0)

  final case class Scored(i: Long, j: Long, prob: Double)

  /** Scored pairs exercising every pruning branch: entity 1's pairs,
    * entity 2's pairs, an invalid pair, and ties.
    */
  val scoredRows: Seq[Scored] = Seq(
    Scored(1, 101, 0.90), Scored(1, 102, 0.60), Scored(1, 103, 0.55),
    Scored(2, 101, 0.70), Scored(2, 102, 0.70),
    Scored(3, 103, 0.45), // invalid
    Scored(4, 104, 0.50), // exactly at the validity threshold
  )

  /** [[scoredRows]] as a DataFrame (i, j, prob). */
  def scoredPairs(spark: SparkSession): DataFrame = {
    import spark.implicits._
    scoredRows.toDF()
  }

  /** `rows` as driver-side pairs whose one feature, `cfibf`, is the
    * probability; the pairs in `positives` are labelled duplicates.
    */
  def localPairs(rows: Seq[Scored], cepK: Long, cnpK: Long,
                 positives: Set[(Long, Long)] = Set.empty,
                 nDuplicates: Long = 0): LocalSweep.LocalPairs =
    LocalSweep.LocalPairs(
      featureNames = Array("cfibf"),
      i = rows.map(_.i).toArray,
      j = rows.map(_.j).toArray,
      x = rows.map(r => Array(r.prob)).toArray,
      label = rows.map(r => positives((r.i, r.j))).toArray,
      nDuplicates = nDuplicates, cepK = cepK, cnpK = cnpK)

  /** Collect a pruned (i, j) DataFrame into a comparable set. */
  def pairSet(df: DataFrame): Set[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
}
