package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.classify.PoolClassifier
import repro.classify.PoolClassifier.{MoveToPool, SetCriticality}
import repro.core.MoniLog
import repro.stream.MoniLogPipeline.Models
import repro.tables.T7Classifier

/** Spark session and the trained model bundle every workload starts from. */
object Setup {

  val ShufflePartitions = 64

  /** The session as the repository's tests build it: `local[*]`, 64 shuffle
    * partitions, broadcast joins off. Scratch files stay under `workDir`.
    */
  def session(workDir: String): SparkSession =
    SparkSession.builder
      .master("local[*]")
      .appName("monilog-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
      .getOrCreate()

  /** Sessions in the anomaly-free training history (about 27k lines). */
  val TrainSessions = 5000L
  /** Administrator actions taken on the first reports of the feedback slice. */
  val FeedbackReports = 200

  /** Train the model bundle on the cached history. */
  def train(spark: SparkSession, history: DataFrame, trace: Trace): Models =
    trace.span("core.train")(MoniLog.train(spark, history))

  /** A classifier taught by the T7 policy on the first reports of a separate
    * feedback slice, so that classification does real work.
    */
  def teach(spark: SparkSession, models: Models, slice: Corpus, trace: Trace): PoolClassifier = {
    val reports = trace.span("core.detect_batch", slice.sessions)(
      Reference.sorted(MoniLog.detectBatch(spark, slice.raw, models).collect().toSeq))
    require(reports.size >= FeedbackReports,
            s"feedback slice gave ${reports.size} reports, need $FeedbackReports")
    val clf = new PoolClassifier()
    trace.span("classify.observe", FeedbackReports)(reports.take(FeedbackReports).foreach { r =>
      val f    = Reference.features(r)
      val pool = T7Classifier.policyPool(f)
      clf.observe(MoveToPool(f, pool))
      clf.observe(SetCriticality(f, pool, T7Classifier.policyCriticality(pool)))
    })
    clf
  }

  /** Seeds of the inputs derived from the workload seed. */
  def historySeed(seed: Long): Long  = seed * 1000003L + 1
  def feedbackSeed(seed: Long): Long = seed * 1000003L + 2
}
