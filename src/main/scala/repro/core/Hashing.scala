package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.udf

/** SplitMix64 finalizer over a candidate pair, implemented once in plain
  * Scala. The DataFrame path ([[Trainer.sample]]) calls it through a
  * deterministic UDF and the driver-side sweep ([[LocalSweep]]) calls it
  * directly, so both draw the *same* training samples. Arithmetic wraps on
  * JVM longs whatever the session's ANSI setting.
  */
object Hashing {

  private val C1 = 0x9E3779B97F4A7C15L
  private val C2 = 0xBF58476D1CE4E5B9L
  private val C3 = 0x94D049BB133111EBL

  /** Mix a candidate pair and a seed into one 64-bit key. */
  def pairKey(i: Long, j: Long, seed: Long): Long =
    mix(i * 0x100000001B3L + j + seed * C1)

  def mix(v0: Long): Long = {
    var z = v0 + C1
    z = (z ^ (z >>> 30)) * C2
    z = (z ^ (z >>> 27)) * C3
    z ^ (z >>> 31)
  }

  /** [[pairKey]] over two integral columns, as a deterministic UDF. */
  def pairKeyCol(i: Column, j: Column, seed: Long): Column =
    udf((a: Long, b: Long) => pairKey(a, b, seed)).apply(i.cast("long"), j.cast("long"))
}
