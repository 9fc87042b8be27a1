package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.Metrics.PRF
import repro.logs.LogSynth
import repro.stream.MoniLogPipeline.RawLog

class MoniLogSpec extends SparkSpec {

  import spark.implicits._

  // anomaly-free history for training, labeled corpus for testing
  private lazy val history = LogSynth.cloud(spark, 600, anomalyRate = 0.0,
                                            seed = 50L, payloadProb = 0.3).toDF().cache()
  private lazy val labeled = LogSynth.cloud(spark, 400, anomalyRate = 0.08,
                                            seed = 51L, payloadProb = 0.3).toDF().cache()
  private lazy val models = MoniLog.train(spark, history)

  test("training mines the full template vocabulary") {
    val nTrue = history.select("templateId").distinct().count()
    assert(models.templates.size == nTrue)
  }

  test("trained parser matches held-out normal lines exactly") {
    val misses = labeled.where(col("sessionLabel") === "normal")
      .select("message").as[String].collect()
      .count(m => models.parser.matchOnly(
        repro.parse.Preprocess.extractStructured(m)._1).isEmpty)
    assert(misses == 0)
  }

  test("sequence model accepts held-out normal sessions") {
    val normals = labeled.where(col("sessionLabel") === "normal")
    val raws = normals.select($"ts", $"source", $"sessionId", $"message").as[RawLog]
    val reports = MoniLog.detectBatch(spark, raws, models).collect()
    val flagged = reports.map(_.sessionId).toSet
    val total = normals.select("sessionId").distinct().count()
    assert(flagged.size.toDouble / total < 0.05,
           s"${flagged.size} of $total normal sessions flagged")
  }

  test("end-to-end detection finds most injected anomalies with high precision") {
    val raws = labeled.select($"ts", $"source", $"sessionId", $"message").as[RawLog]
    val reports = MoniLog.detectBatch(spark, raws, models).collect()
    val flagged = reports.map(_.sessionId).toSet
    val truth = labeled.select("sessionId", "sessionLabel").distinct().collect()
      .map(r => r.getString(0) -> (r.getString(1) != "normal")).toMap
    val prf = Metrics.score(truth.toSeq.map { case (sid, isAnom) => (flagged(sid), isAnom) })
    assert(prf.recall > 0.6, prf.toString)
    assert(prf.precision > 0.6, prf.toString)
  }

  test("quantitative anomalies are reported with the quantitative kind") {
    val quantSessions = labeled.where(col("sessionLabel") === "quantitative")
      .select("sessionId").distinct().as[String].collect().toSet
    val raws = labeled.select($"ts", $"source", $"sessionId", $"message").as[RawLog]
    val reports = MoniLog.detectBatch(spark, raws, models).collect()
    val quantReports = reports.filter(r => quantSessions(r.sessionId))
    assert(quantReports.nonEmpty)
    assert(quantReports.count(_.kind == "quantitative") >
      quantReports.length / 2)
  }

  test("training is deterministic") {
    val m2 = MoniLog.train(spark, history)
    assert(m2.templates == models.templates)
  }

  test("a normal session that pauses longer than the session gap is not flagged") {
    // every 10th session waits 10 s after its third event, longer than the
    // 5 s gap, so detection sees it as two windows; training must too
    val shift = expr("lineId % 64 >= 3 AND (lineId div 64) % 10 = 0")
    val paused = history.withColumn("ts",
      when(shift, col("ts") + expr("INTERVAL 10 SECONDS")).otherwise(col("ts")))
    val shifted = paused.where(shift).select("sessionId").distinct().as[String].collect().toSet
    assert(shifted.nonEmpty)
    val raws = paused.select($"ts", $"source", $"sessionId", $"message").as[RawLog]
    val flagged = MoniLog.detectBatch(spark, raws, MoniLog.train(spark, paused)).collect()
      .map(_.sessionId).toSet
    val pausedFlagged = flagged.intersect(shifted).size
    assert(pausedFlagged == 0, s"$pausedFlagged of ${shifted.size} paused sessions flagged")
  }

  test("score helper computes the paper's metrics") {
    val prf = PRF(tp = 8, fp = 2, fn = 2, tn = 88)
    assert(math.abs(prf.precision - 0.8) < 1e-9)
    assert(math.abs(prf.recall - 0.8) < 1e-9)
    assert(math.abs(prf.f1 - 0.8) < 1e-9)
  }
}
