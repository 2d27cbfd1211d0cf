package repro

import org.apache.spark.sql.functions._

/** The oracle's own checks: a Spark aggregate verified row-for-row against
  * DuckDB, and the two ways [[Oracle.assertEquivalent]] must fail.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private lazy val items = Seq(
    (1L, "A", 17.0), (1L, "N", 36.0), (2L, "N", 8.0), (3L, "R", 28.0),
    (3L, "A", 24.0), (4L, "N", 32.0), (5L, "R", 38.0), (6L, "A", 45.0),
    (7L, "N", 49.0), (7L, "R", 27.0), (8L, "A", 2.0), (9L, "N", 15.0),
  ).toDF("l_orderkey", "l_returnflag", "l_quantity")

  test("oracle verifies a Spark aggregation") {
    val li = items.select("l_returnflag", "l_quantity")
    val got = li.groupBy("l_returnflag").agg(
      count(lit(1)).cast("long").as("n"),
      sum("l_quantity").as("qty"))
    Oracle.assertEquivalent(
      got,
      """SELECT l_returnflag, COUNT(*) AS n, SUM(CAST(l_quantity AS DOUBLE)) AS qty
        |FROM lineitem GROUP BY l_returnflag""".stripMargin,
      "lineitem" -> li)
  }

  test("oracle catches a wrong result") {
    val li = items.select("l_returnflag", "l_quantity")
    val wrong = li.groupBy("l_returnflag").agg(
      (count(lit(1)) + 1).cast("long").as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        wrong,
        "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag",
        "lineitem" -> li)
    }
  }

  test("oracle rejects mismatched column sets") {
    val li = items.select("l_orderkey", "l_quantity").limit(10)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        li.select(col("l_orderkey").as("wrong_name")),
        "SELECT l_orderkey FROM lineitem LIMIT 10",
        "lineitem" -> li)
    }
  }
}
