package repro

import org.apache.spark.sql.SparkSession

/** The program's one SparkSession builder, shared by the tests and the
  * spark-submit entrypoints so every setting reaches both.
  *
  * Master and shuffle partitions come from `SPARK_MASTER` and
  * `SPARK_SHUFFLE_PARTITIONS` (defaults `local[*]` and 64).
  */
object Session {

  def make(appName: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      // Keep joins on the shuffle path at the small sizes tests run at.
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // Cap plan descriptions: the pruning queries reference the feature
      // table several times and full descriptions get expensive.
      .config("spark.sql.maxPlanStringLength", 8192)
      // One warm pass of the pipeline generates more than the default 100
      // whole-stage classes; a smaller cache recompiles them on every run.
      .config("spark.sql.codegen.cache.maxEntries", 2000)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
