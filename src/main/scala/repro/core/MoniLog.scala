package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.classify.PoolClassifier
import repro.detect.{NGramModel, QuantDetector, SemanticMatcher}
import repro.parse.{DistributedDrain, Drain, Preprocess}
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline.{Models, RawLog}

/** MoniLog facade: offline training on anomaly-free history, producing
  * the frozen model bundle the streaming pipeline broadcasts.
  *
  * Training is itself distributed (the paper's §II scalability
  * requirement): templates are mined with [[DistributedDrain]] and frozen
  * into a fresh [[Drain]]; the history then runs through the detection
  * path's own parse and sequence stages, so the sequence and value models
  * learn exactly the events and session windows detection will see. Only
  * the compact models live on the driver.
  */
object MoniLog {

  // training hyper-parameters: Drain tree, n-gram top-g rule, value z-score, semantic matcher
  val Depth        = 4
  val SimThreshold = 0.5
  val NGramOrder   = 2
  val TopG         = 9
  val ZThreshold   = 6.0
  val MatcherTau   = 0.5

  /** Train the full model bundle from an anomaly-free history.
    *
    * @param history columns `lineId`, `ts`, `source`, `sessionId`,
    *                `message` (ground-truth columns, if present, are
    *                ignored — training is unsupervised)
    */
  def train(spark: SparkSession, history: DataFrame): Models = {
    import spark.implicits._

    // 1. mine templates distributively, over payload-stripped messages
    val core = history.select(
      col("lineId").cast("long") as "lineId",
      col("message").cast("string") as "message",
    ).as[(Long, String)]
      .map { case (id, msg) => (id, Preprocess.extractStructured(msg)._1) }
      .toDF("lineId", "message")
    val mined = DistributedDrain.parse(core, Depth, SimThreshold)
    mined.assignments.unpersist() // training reads only the merged templates

    // 2. frozen matcher tree: replay the merged templates into a fresh Drain
    val frozen = new Drain(Depth, SimThreshold)
    mined.templates.toSeq.sortBy(_._1).foreach { case (_, toks) => frozen.parseTokens(toks) }
    val templates = frozen.templates

    // 3. the detection path's parse and sequence stages over the history;
    // parsing reads only the parser, matcher and templates, so the
    // sequence and value models are fitted after the collect
    val matcher = new SemanticMatcher(templates.view.mapValues(_.toSeq).toMap, MatcherTau)
    val parsing = Models(frozen, matcher, new NGramModel(NGramOrder, TopG),
                         new QuantDetector(ZThreshold), templates, ZThreshold)
    val raw = history.select(col("ts"), col("source"), col("sessionId"),
                             col("message").cast("string") as "message").as[RawLog]
    val rows = MoniLogPipeline.sequence(
      MoniLogPipeline.parseStream(raw, broadcastModels(spark, parsing))).collect()

    parsing.copy(
      sequential = new NGramModel(NGramOrder, TopG).fit(rows.iterator.map(_.events.map(_.templateId))),
      quantitative = new QuantDetector(ZThreshold).fit(
        rows.iterator.flatMap(_.events.map(e => (e.templateId, e.vars)))),
    )
  }

  /** Broadcast helpers for driving the pipeline. */
  def broadcastModels(spark: SparkSession, models: Models): Broadcast[Models] =
    spark.sparkContext.broadcast(models)

  def broadcastClassifier(spark: SparkSession,
                          classifier: PoolClassifier): Broadcast[PoolClassifier] =
    spark.sparkContext.broadcast(classifier)

  /** Convenience: batch-mode end-to-end run (tests, T-tables). */
  def detectBatch(spark: SparkSession, raw: Dataset[RawLog], models: Models,
                  classifier: PoolClassifier = new PoolClassifier(),
                  gap: String = "5 seconds"): Dataset[MoniLogPipeline.AnomalyReport] =
    MoniLogPipeline.pipeline(raw, broadcastModels(spark, models),
                             broadcastClassifier(spark, classifier), gap)
}
