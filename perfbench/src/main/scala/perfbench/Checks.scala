package perfbench

import org.apache.spark.sql.functions.col
import repro.blocking.BlockFiltering
import repro.core.{Evaluation, LocalSweep, Scheme}
import repro.er.ErDataset
import repro.exp.Experiments.SweepRow

import scala.collection.mutable

/** Correctness checks made apart from the code under test. Each check takes
  * plain data and returns the list of its failures (empty when it passes), so
  * the self-test can hand it the same data with one pair dropped.
  */
object Checks {

  type Pair = (Long, Long)

  /** Token Blocking → Block Purging → Block Filtering → block statistics,
    * recomputed on the driver from the generated profiles.
    */
  final case class RefBlocks(nBlocks: Long, sumBlockSizes: Long, totComps: Double,
                             candidates: Set[Pair], positives: Long)

  final case class Truth(pairs: Set[Pair], dirty: Boolean, nEntities: Long)

  def truthOf(ds: ErDataset): Truth =
    Truth(ds.groundTruth.select(col("id1").cast("long"), col("id2").cast("long")).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet, ds.dirty, ds.nEntities)

  def referenceBlocks(ds: ErDataset, truth: Truth): RefBlocks = {
    val ratio = BlockFiltering.DefaultRatio
    val rows = ds.profiles.select(col("id").cast("long"), col("source").cast("int"), col("value"))
      .collect().map(r => (r.getLong(0), r.getInt(1), r.getString(2)))
    // (entity, source, token) assignments, distinct.
    val assigned = rows.flatMap { case (id, src, value) =>
      value.toLowerCase(java.util.Locale.ROOT).split("[^\\p{L}\\p{N}]+")
        .filter(_.nonEmpty).map(t => (id, src, t))
    }.distinct
    // Purging: drop blocks holding more than half of all profiles.
    val purgeSize = assigned.groupBy(_._3).view.mapValues(_.length).toMap
    val purged = assigned.filter(a => purgeSize(a._3) <= truth.nEntities / 2.0)
    // Filtering: each entity keeps its ceil(ratio * |B_i|) smallest blocks,
    // ties broken by block key.
    val size = purged.groupBy(_._3).view.mapValues(_.length).toMap
    val filtered = purged.groupBy(_._1).values.flatMap { as =>
      val keep = math.ceil(as.length * ratio).toInt
      as.sortBy(a => (size(a._3), a._3)).take(keep)
    }.toArray
    // Blocks with at least one comparison, and the distinct pairs they hold.
    var nBlocks = 0L; var sumSizes = 0L; var comps = 0.0
    val cands = mutable.HashSet.empty[Pair]
    filtered.groupBy(_._3).values.foreach { members =>
      val e1 = members.filter(_._2 == 1).map(_._1)
      val e2 = members.filter(_._2 == 2).map(_._1)
      val n = members.length.toLong
      val c = if (truth.dirty) n * (n - 1) / 2 else e1.length.toLong * e2.length
      if (c > 0) {
        nBlocks += 1; sumSizes += n; comps += c
        if (truth.dirty) {
          val ids = members.map(_._1).sorted
          for (a <- ids.indices; b <- a + 1 until ids.length) cands += ((ids(a), ids(b)))
        } else for (i <- e1; j <- e2) cands += ((i, j))
      }
    }
    val set = cands.toSet
    RefBlocks(nBlocks, sumSizes, comps, set, set.count(truth.pairs.contains))
  }

  def pairsOf(lp: LocalSweep.LocalPairs, idx: Array[Int]): Array[Pair] = idx.map(r => (lp.i(r), lp.j(r)))
  def allPairs(lp: LocalSweep.LocalPairs): Array[Pair] = pairsOf(lp, lp.i.indices.toArray)

  private def expect(ok: Boolean, msg: => String): Seq[String] = if (ok) Nil else Seq(msg)

  /** |B|, Σ|b|, Σ‖b‖ and |C| of the program equal the driver-side recount, and
    * the collected candidate pairs are exactly the recounted set.
    */
  def blocking(tag: String, ref: RefBlocks, nBlocks: Long, sumBlockSizes: Long,
               totComps: Double, nCandidates: Long, pairs: Array[Pair]): Seq[String] =
    expect(nBlocks == ref.nBlocks, s"$tag: |B| ${nBlocks} != recount ${ref.nBlocks}") ++
    expect(sumBlockSizes == ref.sumBlockSizes, s"$tag: sum|b| $sumBlockSizes != recount ${ref.sumBlockSizes}") ++
    expect(totComps == ref.totComps, s"$tag: sum||b|| $totComps != recount ${ref.totComps}") ++
    expect(nCandidates == ref.candidates.size && pairs.length == ref.candidates.size,
      s"$tag: |C| ${nCandidates} (collected ${pairs.length}) != recount ${ref.candidates.size}") ++
    expect(pairs.toSet == ref.candidates, s"$tag: collected pairs differ from the recounted set")

  /** `Pipeline.run` and the `LocalSweep` path agree on |C'| and tp. */
  def equivalence(tag: String, spark: Evaluation.Metrics, local: Evaluation.Metrics): Seq[String] =
    expect(spark.retained == local.retained && spark.truePositives == local.truePositives,
      s"$tag: Pipeline.run |C'|=${spark.retained} tp=${spark.truePositives} but " +
        s"LocalSweep |C'|=${local.retained} tp=${local.truePositives}")

  /** The reported |C'| and tp match the retained pairs (tp recounted
    * against the ground truth).
    */
  def retained(tag: String, pairs: Array[Pair], reported: Evaluation.Metrics,
               truth: Truth): Seq[String] = {
    val tp = pairs.count(truth.pairs.contains).toLong
    expect(pairs.length == reported.retained && tp == reported.truePositives,
      s"$tag: reported |C'|=${reported.retained} tp=${reported.truePositives}, " +
        s"retained pairs give ${pairs.length} and $tp")
  }

  /** tp ≤ min(|C'|, |D|) of reported metrics. */
  def tpBound(tag: String, reported: Evaluation.Metrics, truth: Truth): Seq[String] =
    expect(reported.truePositives <= math.min(reported.retained, truth.pairs.size.toLong),
      s"$tag: tp ${reported.truePositives} > min(|C'|=${reported.retained}, |D|=${truth.pairs.size})")

  /** A sweep row's recall and precision are those of the pairs its run keeps. */
  def sweepRow(tag: String, pairs: Array[Pair], row: SweepRow, truth: Truth): Seq[String] = {
    val m = Evaluation.of(pairs.count(truth.pairs.contains).toLong, pairs.length, truth.pairs.size.toLong)
    expect(math.abs(m.recall - row.recall) < 1e-12 && math.abs(m.precision - row.precision) < 1e-12,
      f"$tag: row Re=${row.recall}%.6f Pr=${row.precision}%.6f, its retained pairs give " +
        f"Re=${m.recall}%.6f Pr=${m.precision}%.6f")
  }

  /** BCl keeps exactly the valid pairs (p ≥ 0.5); BLAST under the same model
    * keeps a subset of them, so |BLAST| ≤ |BCl|.
    */
  def blastWithinBcl(tag: String, all: Array[Pair], probs: Array[Double],
                     blast: Array[Pair], bcl: Array[Pair]): Seq[String] = {
    val valid = all.indices.filter(probs(_) >= 0.5).map(all(_)).toSet
    val bclSet = bcl.toSet
    expect(bclSet == valid && bcl.length == valid.size,
      s"$tag: BCl kept ${bcl.length} pairs, ${valid.size} are valid") ++
    expect(blast.length <= bcl.length && blast.forall(bclSet.contains),
      s"$tag: |BLAST|=${blast.length} is not within |BCl|=${bcl.length}")
  }

  /** RCNP recomputed from its definition: a valid pair is kept when it is in
    * the top-k (by p desc, i, j) of both endpoints; no entity may then be in
    * more than k retained pairs.
    */
  def rcnp(tag: String, all: Array[Pair], probs: Array[Double], k: Long,
           kept: Array[Pair]): Seq[String] = {
    val byEntity = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Int]]
    all.indices.filter(probs(_) >= 0.5).foreach { p =>
      byEntity.getOrElseUpdate(all(p)._1, mutable.ArrayBuffer.empty) += p
      byEntity.getOrElseUpdate(all(p)._2, mutable.ArrayBuffer.empty) += p
    }
    val votes = mutable.HashMap.empty[Int, Int]
    byEntity.values.foreach { ps =>
      ps.sortBy(p => (-probs(p), all(p)._1, all(p)._2)).take(k.toInt)
        .foreach(p => votes(p) = votes.getOrElse(p, 0) + 1)
    }
    val ref = votes.iterator.collect { case (p, 2) => all(p) }.toSet
    val perEntity = kept.flatMap(p => Seq(p._1, p._2)).groupBy(identity).view.mapValues(_.length)
    expect(kept.toSet == ref && kept.length == ref.size,
      s"$tag: RCNP kept ${kept.length} pairs, the definition keeps ${ref.size}") ++
    expect(perEntity.values.forall(_ <= k), s"$tag: an entity is in more than k=$k RCNP pairs")
  }

  /** The collected labels count the duplicates in C that the recount finds. */
  def positives(tag: String, ref: RefBlocks, labels: Array[Boolean]): Seq[String] =
    expect(labels.count(identity) == ref.positives,
      s"$tag: ${labels.count(identity)} collected positives, recount finds ${ref.positives} in C")

  /** Every sweep or training-size row finds at most the duplicates that are
    * in C, counted by the recount.
    */
  def rowsWithin(tag: String, ref: RefBlocks, rowTps: Seq[(String, Double)]): Seq[String] =
    rowTps.filter(_._2 > ref.positives + 1e-6).take(3)
      .map { case (r, tp) => s"$tag/$r: tp $tp > ${ref.positives} duplicates in C" }

  /** Checks 2–5 for one Spark configuration over pairs collected with (at
    * least) its schemes: the two paths agree, the reported counts match the
    * retained pairs, the tp bound, |BLAST| ≤ |BCl| and RCNP under its model.
    */
  def config(tag: String, lp: LocalSweep.LocalPairs, c: Pass.ConfigResult, truth: Truth,
             seed: Long): Seq[String] = {
    val all = allPairs(lp)
    val (_, probs) = LocalSweep.trainAndScore(lp, c.cfg.schemes, c.perClass, c.perClass, seed)
    def kept(algo: String) = pairsOf(lp, LocalSweep.prune(lp, probs, algo))
    equivalence(tag, c.spark, c.local) ++
      retained(tag, kept(c.cfg.algo), c.local, truth) ++
      tpBound(tag, c.spark, truth) ++
      blastWithinBcl(tag, all, probs, kept("BLAST"), kept("BCl")) ++
      rcnp(tag, all, probs, lp.cnpK, kept("RCNP"))
  }

  /** Checks 3–5 for the feature sweep: every algorithm has 255 rows; under
    * the model of all eight schemes (the mask-255 row's run), each row's
    * recall and precision are those of its retained pairs, |BLAST| ≤ |BCl|
    * and RCNP hold.
    */
  def sweep(tag: String, lp: LocalSweep.LocalPairs, rows: Seq[(String, Seq[SweepRow])],
            perClass: Int, truth: Truth, seed: Long): Seq[String] = {
    val all = allPairs(lp)
    val (_, probs) = LocalSweep.trainAndScore(lp, Scheme.fromMask(255), perClass, perClass, seed)
    def kept(algo: String) = pairsOf(lp, LocalSweep.prune(lp, probs, algo))
    rows.flatMap { case (algo, rs) =>
      expect(rs.size == 255, s"$tag/$algo: sweep has ${rs.size} rows, not 255") ++
        rs.filter(_.mask == 255).flatMap(r => sweepRow(s"$tag/$algo/255", kept(algo), r, truth))
    } ++
      blastWithinBcl(s"$tag/255", all, probs, kept("BLAST"), kept("BCl")) ++
      rcnp(s"$tag/255", all, probs, lp.cnpK, kept("RCNP"))
  }

  /** Every check of one pass's output. */
  def output(w: Workloads.Workload, r: Pass.Output, truth: Truth, ref: RefBlocks,
             seed: Long): Seq[String] = {
    val tag = r.c.input.name
    val lp = r.c.lp
    val rowTps =
      r.sizeRows.map(t => s"size${t.size}" -> t.metrics.truePositives.toDouble) ++
        r.sweepRows.flatMap { case (algo, rs) => rs.map(s => s"$algo/${s.mask}" -> s.recall * r.c.nDup) }
    val sweepChecks = w.driver match {
      case Workloads.FeatureSweep(_, pc) => sweep(tag, lp, r.sweepRows, pc, truth, seed)
      case _ => Nil
    }
    blocking(tag, ref, r.c.nBlocks, r.c.sumBlockSizes, r.c.totComps, r.c.nCandidates, allPairs(lp)) ++
      r.configs.flatMap(c => config(s"$tag/${c.cfg.label}", lp, c, truth, seed)) ++
      sweepChecks ++ positives(tag, ref, lp.label) ++ rowsWithin(tag, ref, rowTps)
  }

  /** Same seed, same inputs: every pass must return the same |C'| and tp. */
  def repeatable(passes: Seq[Pass.Result]): Seq[String] = {
    def outcome(p: Pass.Result) = {
      val o = p.out
      (o.configs.map(c => (c.cfg.label, c.spark.retained, c.spark.truePositives, c.local.retained)),
        o.sizeRows.map(_.metrics.truePositives), o.sweepRows.map(_._2.map(r => (r.mask, r.recall, r.precision))))
    }
    passes.drop(1).zipWithIndex.flatMap { case (p, k) =>
      expect(outcome(p) == outcome(passes.head), s"pass ${k + 2} returned other results than pass 1")
    }
  }
}
