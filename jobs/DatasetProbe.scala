package repro.jobs

import repro.er.Datasets
import repro.exp.Experiments

/** Prints Table 1 / Table 2 characteristics for the dataset analogs — used
  * both as a spark-submit entrypoint and for tuning the generator knobs.
  * Args: optional dataset names (defaults to all Clean-Clean analogs).
  */
object DatasetProbe {
  def main(args: Array[String]): Unit = {
    val spark = repro.Session.make("DatasetProbe")
    val names = if (args.nonEmpty) args.toSeq else Datasets.cleanClean.map(_.name)
    val (_, t1, t2) = Experiments.datasetAndBlockingTables(spark, names)
    println("== Table 1 (analog) ==")
    println(t1)
    println("== Table 2 (analog) ==")
    println(t2)
    spark.stop()
  }
}
