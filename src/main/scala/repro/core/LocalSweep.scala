package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.blocking.BlockCollection
import scala.collection.mutable

/** Driver-side fast path for the 255-combination feature sweep (§5.3) and the
  * other experiments that repeat hundreds of (train → score → prune →
  * evaluate) runs over the *same* candidate pairs.
  *
  * The feature table is collected once; every run is then pure in-memory
  * arithmetic. Semantics are identical to the DataFrame path: the training
  * sample uses the same [[Hashing]] order as [[Trainer.sample]], the same
  * classifier, and pruning interprets the same rule table,
  * [[Pruning.rules]], with the same deterministic tie-breaking — equivalence
  * is unit-tested pair-for-pair on generated data.
  */
object LocalSweep {

  /** Collected candidate pairs with the full 8-scheme (9-column) feature
    * matrix and their ground-truth labels.
    */
  final case class LocalPairs(
      featureNames: Array[String],
      i: Array[Long],
      j: Array[Long],
      x: Array[Array[Double]],
      label: Array[Boolean],
      nDuplicates: Long,
      cepK: Long,
      cnpK: Long,
  ) {
    def size: Int = i.length
    def columnIndex(name: String): Int = {
      val k = featureNames.indexOf(name)
      require(k >= 0, s"feature $name not collected")
      k
    }
  }

  /** Collect the labeled feature table of `bc` to the driver. */
  def collect(labeled: DataFrame, schemes: Seq[Scheme], bc: BlockCollection,
              nDuplicates: Long): LocalPairs = {
    val cols = Scheme.featureColumns(schemes)
    val rows = labeled
      .select((Seq(col("i").cast("long"), col("j").cast("long"), col("label").cast("int")) ++
        cols.map(c => col(c).cast("double"))): _*)
      .collect()
    val n = rows.length
    val is = new Array[Long](n); val js = new Array[Long](n)
    val xs = new Array[Array[Double]](n); val lb = new Array[Boolean](n)
    var r = 0
    while (r < n) {
      val row = rows(r)
      is(r) = row.getLong(0); js(r) = row.getLong(1); lb(r) = row.getInt(2) == 1
      xs(r) = Array.tabulate(cols.size)(k => row.getDouble(3 + k))
      r += 1
    }
    LocalPairs(cols.toArray, is, js, xs, lb, nDuplicates, bc.cepK, bc.cnpK)
  }

  /** Balanced training sample in the same deterministic order as
    * [[Trainer.sample]]: (pairKey(i, j, seed), i, j) ascending per class.
    */
  def sample(lp: LocalPairs, colIdx: Array[Int], nPos: Int, nNeg: Int,
             seed: Long): Trainer.TrainingSet = {
    def take(positive: Boolean, n: Int): Array[Int] =
      lp.i.indices.toArray
        .filter(r => lp.label(r) == positive)
        .sortBy(r => (Hashing.pairKey(lp.i(r), lp.j(r), seed), lp.i(r), lp.j(r)))
        .take(n)
    val rows = take(positive = true, nPos) ++ take(positive = false, nNeg)
    Trainer.TrainingSet(
      colIdx.map(lp.featureNames(_)).toSeq,
      rows.map(r => colIdx.map(lp.x(r)(_))),
      rows.map(r => if (lp.label(r)) 1 else 0))
  }

  /** Train on a balanced sample and score every pair. */
  def trainAndScore(lp: LocalPairs, schemes: Seq[Scheme], nPos: Int, nNeg: Int,
                    seed: Long): (LRModel, Array[Double]) = {
    val colIdx = Scheme.featureColumns(schemes).map(lp.columnIndex).toArray
    val ts = sample(lp, colIdx, nPos, nNeg, seed)
    val model = LogisticRegression.train(ts.featureNames, ts.x, ts.y)
    val probs = new Array[Double](lp.size)
    var r = 0
    while (r < lp.size) {
      probs(r) = model.probability(colIdx.map(lp.x(r)(_)))
      r += 1
    }
    (model, probs)
  }

  // ------------------------------------------------------------------ pruning

  /** Indices of the pairs algorithm `algo` keeps. */
  def prune(lp: LocalPairs, probs: Array[Double], algo: String): Array[Int] =
    prune(lp, probs, Pruning.rule(algo))

  /** Indices of the pairs `rule` keeps: [[Pruning.Rule]] interpreted on the
    * driver, with the ties of [[Pruning.apply]]. Per-entity rules group the
    * valid pairs by entity once and sum what each entity adds per pair.
    */
  def prune(lp: LocalPairs, probs: Array[Double], rule: Pruning.Rule): Array[Int] = {
    import Pruning.{Blast, Edge, Mean, Node, Rank, Valid}
    val valid = Array.range(0, lp.size).filter(probs(_) >= 0.5)
    def ranked(ps: Array[Int]): Array[Int] = {
      val sorted = ps.clone()
      scala.util.Sorting.stableSort(sorted, (a: Int, b: Int) => probs(a) > probs(b) ||
        probs(a) == probs(b) && (lp.i(a) < lp.i(b) || lp.i(a) == lp.i(b) && lp.j(a) < lp.j(b)))
      sorted
    }
    def budget(k: Long): Int = math.min(k, Int.MaxValue.toLong).toInt
    def max(ps: Array[Int]): Double = {
      var m = Double.MinValue
      for (p <- ps) m = math.max(m, probs(p))
      m
    }
    def mean(ps: Array[Int]): Double = {
      var sum = 0.0
      for (p <- ps) sum += probs(p)
      math.min(sum / ps.length, max(ps))
    }

    /** Per pair, the sum of what `add(ps, s)` adds to `s(p)` for each of its
      * two endpoints, where `ps` are that entity's valid pairs.
      */
    def perPair(add: (Array[Int], Array[Double]) => Unit): Array[Double] = {
      // Endpoint k is i (k even) or j (k odd) of valid(k / 2), as a dense entity index.
      val entityOf = mutable.HashMap.empty[Long, Int]
      val ends = new Array[Int](2 * valid.length)
      for (k <- ends.indices) {
        val p = valid(k / 2)
        ends(k) = entityOf.getOrElseUpdate(if (k % 2 == 0) lp.i(p) else lp.j(p), entityOf.size)
      }
      // Entity e's valid pairs are member(start(e) until start(e + 1)).
      val start = new Array[Int](entityOf.size + 1)
      ends.foreach(e => start(e + 1) += 1)
      for (e <- 1 to entityOf.size) start(e) += start(e - 1)
      val next = start.clone()
      val member = new Array[Int](ends.length)
      ends.indices.foreach { k => member(next(ends(k))) = valid(k / 2); next(ends(k)) += 1 }
      val s = new Array[Double](lp.size)
      for (e <- 0 until entityOf.size)
        add(java.util.Arrays.copyOfRange(member, start(e), start(e + 1)), s)
      s
    }

    rule match {
      case Valid => valid
      case Edge(Mean) =>
        if (valid.isEmpty) valid
        else { val s = mean(valid); valid.filter(probs(_) >= s) }
      case Edge(Rank) => ranked(valid).take(budget(lp.cepK))
      case Node(stat, reciprocal) =>
        val passes = perPair { (ps, s) =>
          stat match {
            case Mean => val m = mean(ps); ps.foreach(p => if (probs(p) >= m) s(p) += 1)
            case Rank => ranked(ps).take(budget(lp.cnpK)).foreach(s(_) += 1)
          }
        }
        valid.filter(passes(_) >= (if (reciprocal) 2 else 1))
      case Blast(r) =>
        val s = perPair { (ps, s) => val m = max(ps); ps.foreach(s(_) += m) }
        valid.filter(p => probs(p) >= r * s(p))
    }
  }

  def metricsOf(lp: LocalPairs, retained: Array[Int]): Evaluation.Metrics =
    Evaluation.of(retained.count(lp.label(_)), retained.length, lp.nDuplicates)

  /** One complete local run: train, score, prune, evaluate. */
  def run(lp: LocalPairs, schemes: Seq[Scheme], algo: String, nPos: Int,
          nNeg: Int, seed: Long): Evaluation.Metrics = {
    val rule = Pruning.rule(algo)
    val (_, probs) = trainAndScore(lp, schemes, nPos, nNeg, seed)
    metricsOf(lp, prune(lp, probs, rule))
  }
}
