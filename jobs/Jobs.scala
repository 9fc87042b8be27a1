package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.tables.Tables

/** Shared Spark session builder for the spark-submit entrypoints. */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder
      .appName(name)
      // spark-submit provides spark.master; fall back to local for
      // direct `sbt jobs/runMain` smoke runs
      .master(sys.props.getOrElse("spark.master", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def arg(args: Array[String], idx: Int, default: Long): Long =
    if (args.length > idx) args(idx).toLong else default
}

/** Prints one reproduced table to stdout.
  *
  * Usage: `spark-submit --class repro.jobs.TableJob repro-jobs.jar <T1..T8> [nSessions]`
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val entry = args.headOption.flatMap(Tables.byName.get).getOrElse {
      System.err.println(s"usage: TableJob <${Tables.byName.keys.toSeq.sorted.mkString("|")}> [nSessions]")
      sys.exit(2)
    }
    val spark = Jobs.session(s"monilog-${args(0)}")
    println(entry.render(spark, Jobs.arg(args, 1, entry.defaultSessions)))
    spark.stop()
  }
}
