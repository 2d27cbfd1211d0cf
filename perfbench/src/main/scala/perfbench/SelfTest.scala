package perfbench

import repro.core.{Evaluation, LocalSweep, Scheme}
import repro.er.Datasets
import repro.exp.Experiments

/** Shows that every correctness check passes on intact outputs and fails
  * when the output it checks is off by one pair. Runs on the small
  * unit-test dataset; prints one line per check and exits 0 only when every
  * check behaves so.
  */
object SelfTest {

  def run(seed: Long, outDir: String): Int = {
    val spark = Main.session(outDir)
    val meter = new SparkMeter
    spark.sparkContext.addSparkListener(meter)
    val configs = Seq("BLAST", "RCNP").map(Workloads.finalConfig)
    val w = Workloads.Workload("selftest", Workloads.Clean(Datasets.unitCc),
      configs, Workloads.TrainingSizes(Seq(50, 500), seeds = 1))
    val pass = Pass.run(spark, meter, None, w, Main.generate(spark, w), seed)
    val r = pass.out
    val lp = r.c.lp
    val truth = Checks.truthOf(r.c.ds)
    val ref = Checks.referenceBlocks(r.c.ds, truth)
    val all = Checks.allPairs(lp)
    val c = r.configs.head // BLAST
    val (_, probs) = LocalSweep.trainAndScore(lp, configs.head.schemes, c.perClass, c.perClass, seed)
    def kept(algo: String) = Checks.pairsOf(lp, LocalSweep.prune(lp, probs, algo))
    val blast = kept("BLAST")
    val bcl = kept("BCl")
    val rcnp = kept("RCNP")
    // Drop one true positive where there is one, so the drop changes tp too.
    def dropOne(ps: Array[Checks.Pair]): Array[Checks.Pair] = {
      val k = math.max(0, ps.indexWhere(truth.pairs.contains))
      ps.patch(k, Nil, 1)
    }
    val lessOnePositive = {
      val k = lp.label.indexOf(true)
      lp.label.updated(k, false)
    }
    val dropped = dropOne(blast)
    val droppedMetrics = Evaluation.of(dropped.count(truth.pairs.contains).toLong, dropped.length, r.c.nDup)
    // BLAST's true positives reported with one pair dropped from |C'|: tp > |C'|.
    val tps = blast.count(truth.pairs.contains).toLong
    val tpOverRetained = Evaluation.of(tps, tps - 1, r.c.nDup)
    val rowTps = r.sizeRows.map(t => s"size${t.size}" -> t.metrics.truePositives.toDouble)
    // A row that finds every duplicate in C, against a recount with one fewer.
    val allFound = rowTps :+ ("all" -> ref.positives.toDouble)
    val changedPass = pass.copy(out = r.copy(configs = r.configs.map(x =>
      x.copy(spark = x.spark.copy(retained = x.spark.retained - 1)))))
    // The sweep over all 8 schemes: its mask-255 BLAST row at 250 labels
    // per class, and that run's pairs.
    val lp8 = Pass.prepareAndCollect(None, r.c.input, r.c.ds).lp
    val sweepRows = Seq("BLAST" -> Experiments.featureSweep(Seq(lp8), "BLAST", 250, Seq(seed)))
    val row255 = sweepRows.head._2.find(_.mask == 255).get
    val blast255 = {
      val (_, p255) = LocalSweep.trainAndScore(lp8, Scheme.fromMask(255), 250, 250, seed)
      Checks.pairsOf(lp8, LocalSweep.prune(lp8, p255, "BLAST"))
    }

    val cases: Seq[(String, Seq[String], Seq[String])] = Seq(
      ("blocking recount (|B|, sum|b|, sum||b||, |C|)",
        Checks.blocking("cc", ref, r.c.nBlocks, r.c.sumBlockSizes, r.c.totComps, r.c.nCandidates, all),
        Checks.blocking("cc", ref, r.c.nBlocks, r.c.sumBlockSizes, r.c.totComps, r.c.nCandidates, dropOne(all))),
      ("Pipeline.run == LocalSweep (|C'|, tp)",
        Checks.equivalence("BLAST", c.spark, c.local),
        Checks.equivalence("BLAST", c.spark, droppedMetrics)),
      ("reported |C'|, tp match the retained pairs",
        Checks.retained("BLAST", blast, c.local, truth),
        Checks.retained("BLAST", dropped, c.local, truth)),
      ("tp <= min(|C'|, |D|)",
        Checks.tpBound("BLAST", c.spark, truth),
        Checks.tpBound("BLAST", tpOverRetained, truth)),
      ("|BLAST| <= |BCl| under one model",
        Checks.blastWithinBcl("BLAST", all, probs, blast, bcl),
        Checks.blastWithinBcl("BLAST", all, probs, blast, dropOne(bcl))),
      ("RCNP: definition, <= k pairs per entity",
        Checks.rcnp("BLAST", all, probs, lp.cnpK, rcnp),
        Checks.rcnp("BLAST", all, probs, lp.cnpK, dropOne(rcnp))),
      ("sweep row: Re, Pr of its retained pairs",
        Checks.sweepRow("BLAST/255", blast255, row255, truth),
        Checks.sweepRow("BLAST/255", dropOne(blast255), row255, truth)),
      ("collected positives == recount",
        Checks.positives("cc", ref, lp.label),
        Checks.positives("cc", ref, lessOnePositive)),
      ("every row: tp <= duplicates in C",
        Checks.rowsWithin("cc", ref, allFound),
        Checks.rowsWithin("cc", ref.copy(positives = ref.positives - 1), allFound)),
      ("passes repeat (|C'|, tp)",
        Checks.repeatable(Seq(pass, pass)),
        Checks.repeatable(Seq(pass, changedPass))),
      ("all checks of one pass, the sweep's too",
        Checks.output(w, r, truth, ref, seed) ++ Checks.sweep("cc", lp8, sweepRows, 250, truth, seed), Nil),
    )
    var ok = true
    println(f"${"check"}%-50s ${"intact"}%-8s one pair off")
    cases.foreach { case (name, intact, broken) =>
      val last = name == cases.last._1
      val good = intact.isEmpty && (last || broken.nonEmpty)
      ok &&= good
      println(f"$name%-50s ${if (intact.isEmpty) "pass" else "FAIL"}%-8s " +
        (if (last) "-" else if (broken.nonEmpty) s"fails: ${broken.head}" else "PASSES (check is blind)"))
      intact.foreach(f => println(s"    intact failure: $f"))
    }
    spark.stop()
    if (ok) 0 else 1
  }
}
