package repro.core

import repro.SparkSpec
import scala.util.Random

class HashingSpec extends SparkSpec {
  import spark.implicits._

  test("driver and Catalyst implementations agree bit-for-bit") {
    val rows = Seq((0L, 0L), (1L, 2L), (123456789L, 987654321L),
      (Long.MaxValue, Long.MinValue), (-5L, 7L))
    for (seed <- Seq(0L, 1L, 42L, -17L)) {
      val df = rows.toDF("i", "j")
        .select($"i", $"j", Hashing.pairKeyCol($"i", $"j", seed).as("h"))
      df.collect().foreach { r =>
        assert(r.getLong(2) === Hashing.pairKey(r.getLong(0), r.getLong(1), seed))
      }
    }
  }

  test("property: agreement on random inputs") {
    val rng = new Random(2024)
    val rows = Seq.fill(200)((rng.nextLong(), rng.nextLong()))
    val seed = rng.nextLong()
    val got = rows.toDF("i", "j")
      .select($"i", $"j", Hashing.pairKeyCol($"i", $"j", seed).as("h"))
      .collect()
    got.foreach { r =>
      assert(r.getLong(2) === Hashing.pairKey(r.getLong(0), r.getLong(1), seed))
    }
  }

  test("the shared session runs Spark's default ANSI mode") {
    assert(spark.conf.get("spark.sql.ansi.enabled") === "true")
  }

  test("different seeds permute differently") {
    val keys1 = (0L until 100L).map(k => Hashing.pairKey(k, k + 1, seed = 1))
    val keys2 = (0L until 100L).map(k => Hashing.pairKey(k, k + 1, seed = 2))
    assert(keys1 !== keys2)
    assert(keys1.zip(keys2).count { case (a, b) => a == b } < 5)
  }

  test("pair order matters (i,j) != (j,i)") {
    assert(Hashing.pairKey(1, 2, 0) !== Hashing.pairKey(2, 1, 0))
  }

  test("mix spreads consecutive inputs") {
    val hs = (0L until 1000L).map(Hashing.mix)
    assert(hs.distinct.size === 1000)
    // Low bits should look uniform: about half odd.
    val odd = hs.count(h => (h & 1) == 1)
    assert(odd > 400 && odd < 600)
  }
}
