package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.logs.{Instability, LogSynth}
import repro.stream.MoniLogPipeline.RawLog

/** One generated input: cached on the cluster for the program and copied to
  * the driver for the reference check and the single-thread layer timings.
  *
  * @param labels ground-truth `sessionLabel` per sessionId
  */
final case class Corpus(
    name: String,
    sessions: Long,
    raw: Dataset[RawLog],
    lines: Array[RawLog],
    labels: Map[String, String],
) {
  def nLines: Long = lines.length.toLong
  def unpersist(): Unit = raw.unpersist()
}

object Corpus {

  /** Shape of a generated corpus (everything but the seed). */
  final case class Shape(sessions: Long, anomalyRate: Double, payloadProb: Double,
                         instability: Double = 0.0)

  /** Generate `shape` from `seed` with `LogSynth.cloud` (plus
    * `Instability.inject` when asked), cache it and collect a driver copy.
    */
  def generate(spark: SparkSession, name: String, shape: Shape, seed: Long,
               driverCopy: Boolean = true): Corpus = {
    import spark.implicits._
    val base = LogSynth.cloud(spark, shape.sessions, anomalyRate = shape.anomalyRate,
                              seed = seed, payloadProb = shape.payloadProb)
    val lines = if (shape.instability > 0) Instability.inject(base, shape.instability, seed) else base
    val full = lines.select(col("ts"), col("source"), col("sessionId"), col("message"),
                            col("sessionLabel")).persist()
    val rows = if (driverCopy) full.collect() else Array.empty[org.apache.spark.sql.Row]
    val raw = full.select(col("ts"), col("source"), col("sessionId"), col("message"))
      .as[RawLog].persist()
    raw.count()
    full.unpersist()
    Corpus(
      name, shape.sessions, raw,
      rows.map(r => RawLog(r.getTimestamp(0), r.getString(1), r.getString(2), r.getString(3))),
      rows.iterator.map(r => r.getString(2) -> r.getString(4)).toMap,
    )
  }

  /** Training history: the full generated lines (train needs `lineId`). */
  def history(spark: SparkSession, sessions: Long, seed: Long,
              payloadProb: Double): org.apache.spark.sql.DataFrame =
    LogSynth.cloud(spark, sessions, anomalyRate = 0.0, seed = seed, payloadProb = payloadProb)
      .toDF().persist()
}
