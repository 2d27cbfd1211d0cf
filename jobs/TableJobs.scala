package repro.jobs

import repro.Session
import repro.core.{Pruning, Scheme}
import repro.exp.Experiments

/** Dataset names shared by the spark-submit entrypoints. */
object JobDatasets {
  val allCc: Seq[String] = repro.er.Datasets.cleanClean.map(_.name)
  val allDirty: Seq[String] = repro.er.Datasets.scalability.map(_.name)
}

/** Tables 1 and 2: dataset characteristics + blocking effectiveness. */
object Table1Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = Session.make("table1-2")
    val names = if (args.nonEmpty) args.toSeq else JobDatasets.allCc
    val (_, t1, t2) = Experiments.datasetAndBlockingTables(spark, names)
    println("== Table 1 ==\n" + t1)
    println("== Table 2 ==\n" + t2)
    spark.stop()
  }
}

/** Tables 3/4: the 255-combination feature sweep. args: <BLAST|RCNP> [nDatasets]. */
object SweepJob {
  def main(args: Array[String]): Unit = {
    val algo = args.headOption.getOrElse("BLAST")
    Pruning.rule(algo) // a misspelled name fails before any dataset is built
    val n = args.lift(1).map(_.toInt).getOrElse(7)
    val spark = Session.make(s"sweep-$algo")
    val pairs = JobDatasets.allCc.take(n).map { name =>
      val p = Experiments.prepareByName(spark, name)
      val lp = Experiments.local(p)
      p.unpersist()
      lp
    }
    val ranked = Experiments.featureSweep(pairs, algo, perClass = 250, seeds = Seq(1L, 2L))
    println(s"== Top-10 feature sets for $algo ==\n" +
      Experiments.sweepTable(ranked, top = 10))
    spark.stop()
  }
}

/** Table 5: weight-based finals. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = Session.make("table5")
    val names = if (args.nonEmpty) args.toSeq else JobDatasets.allCc
    val rows = Experiments.finals(spark, names, Experiments.table5Configs)
    println(Experiments.finalsTable(rows, Experiments.table5Configs))
    spark.stop()
  }
}

/** Table 6: BLAST's logistic-regression models over the D100K analog. */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = Session.make("table6")
    val p = Experiments.prepareByName(spark, args.headOption.getOrElse("D100K-A"))
    val lp = Experiments.local(p)
    println(Experiments.modelTable(Experiments.blastModels(lp)))
    spark.stop()
  }
}

/** Table 7: cardinality-based finals. */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val spark = Session.make("table7")
    val names = if (args.nonEmpty) args.toSeq else JobDatasets.allCc
    val rows = Experiments.finals(spark, names, Experiments.table7Configs)
    println(Experiments.finalsTable(rows, Experiments.table7Configs))
    spark.stop()
  }
}

/** Figures 5/6: average effectiveness of all eight pruning algorithms. */
object AlgoSelectionJob {
  def main(args: Array[String]): Unit = {
    val spark = Session.make("algo-selection")
    val names = if (args.nonEmpty) args.toSeq else JobDatasets.allCc.take(7)
    val pairs = names.map { name =>
      val p = Experiments.prepareByName(spark, name)
      val lp = Experiments.local(p)
      p.unpersist()
      lp
    }
    println(Experiments.algoTable(Experiments.algorithmSelection(pairs)))
    spark.stop()
  }
}

/** Figures 11/14: the effect of the training-set size. args: [BLAST|RCNP]. */
object TrainingSizeJob {
  def main(args: Array[String]): Unit = {
    val algo = args.headOption.getOrElse("BLAST")
    Pruning.rule(algo) // a misspelled name fails before any dataset is built
    val schemes = if (algo == "RCNP") Scheme.rcnpOptimal else Scheme.blastOptimal
    val spark = Session.make(s"training-size-$algo")
    val pairs = JobDatasets.allCc.take(7).map { name =>
      val p = Experiments.prepareByName(spark, name)
      val lp = Experiments.local(p)
      p.unpersist()
      lp
    }
    val rows = Experiments.trainingSizeStudy(pairs, algo, schemes,
      Seq(20, 50, 100, 200, 300, 400, 500))
    rows.foreach(r => println(
      f"${r.size}%5d  Re=${r.metrics.recall}%.4f  Pr=${r.metrics.precision}%.4f  F1=${r.metrics.f1}%.4f"))
    spark.stop()
  }
}

/** Figures 17/18: the scalability study over the Dirty ER analogs. */
object ScalabilityJob {
  def main(args: Array[String]): Unit = {
    val spark = Session.make("scalability")
    val names = if (args.nonEmpty) args.toSeq else JobDatasets.allDirty
    val rows = Experiments.scalability(spark, names, Seq(1L, 2L))
    println(Experiments.scalabilityTable(rows))
    spark.stop()
  }
}
