package repro.core

import org.apache.spark.sql.functions.{coalesce, count, lit, sum}
import repro.LocalCheckpoint
import repro.blocking.{BlockCollection, BlockStats}
import repro.er.ErDataset

/** End-to-end Generalized Supervised Meta-blocking: blocking → features →
  * balanced training sample → probabilistic classifier → pruning → metrics.
  */
object Pipeline {

  /** Result of one meta-blocking run. `runtimeSec` covers feature
    * generation, training, scoring and pruning (the paper's RT definition,
    * §2.1.1). Its last query materializes the retained pairs and, in the
    * same aggregate, counts them and their duplicates.
    */
  final case class RunResult(metrics: Evaluation.Metrics, runtimeSec: Double, model: LRModel)

  /** Blocking-only effectiveness (Table 2): the candidate pairs of the block
    * collection evaluated against the ground truth.
    */
  def blockingMetrics(ds: ErDataset, bc: BlockCollection): Evaluation.Metrics = {
    val c = BlockStats.candidatePairs(bc)
    Evaluation.evaluate(c, ds.groundTruth, ds.groundTruth.count())
  }

  /** One full supervised meta-blocking run over a prepared block collection.
    *
    * The labeled features are computed once, inside the timed region, and
    * kept as a lineage-free table (`localCheckpoint`) that sampling, scoring
    * and pruning all read. RT thus covers exactly one materialization of the
    * chosen feature set, so LCP-free sets stay cheaper. Pruning carries each
    * pair's `label`, and one aggregate over the retained pairs yields |C'|
    * and tp; it ends the timed region. The table is released before
    * returning.
    *
    * @param algo        a name in [[Pruning.rules]]
    * @param schemes     feature set
    * @param nPos / nNeg labelled instances per class
    */
  def run(
      ds: ErDataset,
      bc: BlockCollection,
      schemes: Seq[Scheme],
      algo: String,
      nPos: Int,
      nNeg: Int,
      seed: Long,
  ): RunResult = {
    val rule = Pruning.rule(algo)
    val nDup = ds.groundTruth.count()
    val t0 = System.nanoTime()
    val labeled = Features.labeled(Features.compute(bc, schemes), ds.groundTruth)
      .localCheckpoint()
    try {
      val ts = Trainer.sample(labeled, Scheme.featureColumns(schemes), nPos, nNeg, seed)
      val model = LogisticRegression.train(ts.featureNames, ts.x, ts.y)
      val retained = Pruning(rule, Trainer.score(labeled, model), bc.cepK, bc.cnpK)
      val counts = retained.agg(count(lit(1)), coalesce(sum("label"), lit(0L))).collect()(0)
      val rt = (System.nanoTime() - t0) / 1e9
      RunResult(Evaluation.of(counts.getLong(1), counts.getLong(0), nDup), rt, model)
    } finally LocalCheckpoint.release(labeled)
  }
}
