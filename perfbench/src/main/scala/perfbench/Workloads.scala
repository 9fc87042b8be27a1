package perfbench

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.classify.PoolClassifier
import repro.core.MoniLog
import repro.stream.MoniLogPipeline.{AnomalyReport, Models}

/** Everything a run produces besides its printed lines. */
final case class Outcome(
    endToEnd: Seq[Metric],
    perLayer: Seq[Metric],
    attempted: Long,
    failed: Long,
    config: Seq[(String, Any)],
    notes: Seq[String],
)

/** What a workload needs from the runner. */
final case class Ctx(seed: Long, seconds: Int, trace: Trace, workDir: String, jvmStartMs: Long)

/** A workload: set up (several times), measure, check. */
sealed trait Workload {
  def name: String
  def why: String
  def run(ctx: Ctx): Outcome
}

object Workload {
  val all: Seq[Workload] = Seq(BatchUnstable, Stream)
  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Set-up rounds per run; setup_s is their median. */
  val SetupRounds = 3

  /** Inputs, models and classifier a run starts from.
    *
    * @param setupS  the set-up rounds: training plus classifier feedback,
    *                the program's own set-up work (round 1 runs cold)
    * @param coldS   from JVM start to the end of set-up, everything included
    */
  final case class Prepared(spark: SparkSession, corpus: Corpus, history: DataFrame,
                            feedback: Corpus, models: Models, classifier: PoolClassifier,
                            generateS: Double, trainS: Double, setupS: Seq[Double],
                            coldS: Double) {
    def release(): Unit = { corpus.unpersist(); feedback.unpersist(); history.unpersist() }
  }

  /** Generate the inputs once, then run `SetupRounds` rounds of training and
    * classifier feedback on them, keeping the last round's models.
    */
  def setUp(ctx: Ctx, shape: Corpus.Shape, feedbackShape: Corpus.Shape): Prepared = {
    val t = ctx.trace
    val spark = t.span("bench.session")(Setup.session(ctx.workDir))
    val (corpus, generateS) = time(t.span("logs.generate")(
      Corpus.generate(spark, "corpus", shape, ctx.seed)))
    val history  = Corpus.history(spark, Setup.TrainSessions, Setup.historySeed(ctx.seed), shape.payloadProb)
    val feedback = Corpus.generate(spark, "feedback", feedbackShape, Setup.feedbackSeed(ctx.seed),
                                   driverCopy = false)
    val rounds = (1 to SetupRounds).map { _ =>
      t.span("bench.setup_round") {
        val (models, trainS) = time(Setup.train(spark, history, t))
        val (clf, teachS)    = time(Setup.teach(spark, models, feedback, t))
        (models, clf, trainS, trainS + teachS)
      }
    }
    val (models, clf, trainS, _) = rounds.last
    Prepared(spark, corpus, history, feedback, models, clf, generateS, trainS, rounds.map(_._4),
             (System.currentTimeMillis() - ctx.jvmStartMs) / 1e3)
  }

  def configOf(p: Prepared): Seq[(String, Any)] = {
    val conf = p.spark.conf
    Seq(
      "cores" -> Runtime.getRuntime.availableProcessors,
      "default_parallelism" -> p.spark.sparkContext.defaultParallelism,
      "spark.master" -> p.spark.sparkContext.master,
      "spark.sql.shuffle.partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "state_store_provider" -> conf.get("spark.sql.streaming.stateStore.providerClass"),
      "corpus_sessions" -> p.corpus.sessions,
      "corpus_lines" -> p.corpus.nLines,
      "history_sessions" -> Setup.TrainSessions,
      "spark_version" -> p.spark.version,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "setup_rounds_s" -> p.setupS,
      "cold_setup_s" -> p.coldS,
    )
  }

  /** Session F1 over the given sessions and pool accuracy of the reports. */
  def quality(p: Prepared, reports: Seq[AnomalyReport], sessions: Set[String]): Seq[Metric] = Seq(
    Metric("session_f1", Reference.sessionF1(reports, p.corpus.labels, sessions), "ratio"),
    Metric("pool_acc", Reference.poolAccuracy(reports), "ratio"),
  )

  def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Traced-run layers every workload reports on its own inputs. */
  def commonLayers(ctx: Ctx, p: Prepared, stream: StreamRun.Result, detectBatchS: Double,
                   linesPerS: Double): Seq[Metric] = {
    val t = ctx.trace
    val driver   = t.span("bench.driver_layers")(Layers.driver(p.models, p.classifier, p.corpus.lines.toSeq, t))
    val training = t.span("bench.training_layers")(Layers.training(p.spark, p.history, p.models, t))
    val staged   = t.span("bench.staged")(Layers.staged(p.spark, p.corpus.raw, p.models, p.classifier, t))
    Seq(Metric("logs.generate_s", p.generateS, "s")) ++ driver ++ training ++ staged ++
      Layers.streaming(stream) ++ Seq(
        Metric("core.train_s", p.trainS, "s"),
        Metric("core.detect_batch_s", detectBatchS, "s"),
        Metric("core.lines_per_s", linesPerS, "lines/s"),
      )
  }

  def alerts(latencies: Seq[Double]): Seq[Metric] = Seq(
    Metric("alert_p50_s", Stats.median(latencies), "s"),
    Metric("alert_p95_s", Stats.quantile(latencies, 0.95), "s"),
  )

  def tailNote(latencies: Seq[Double], samples: String): String = Stats.tail(latencies) match {
    case Some(t) => f"alert tail: p${t.percentile}%.1f = ${t.value}%.4f s over ${t.samples} $samples (${t.beyond} beyond it)"
    case None    => s"alert tail: fewer than 10 of ${latencies.size} $samples beyond any percentile"
  }
}

/** Batch detection over a corpus with 20% LogRobust-style instability. */
object BatchUnstable extends Workload {
  import Workload._

  val name = "batch-unstable"
  val why  = "10% of lines take the semantic fallback and reports are 5x the clean rate; " +
             "no JSON payloads, so pre-extraction is bypassed"

  val Shape = Corpus.Shape(sessions = 15000, anomalyRate = 0.03, payloadProb = 0.0, instability = 0.2)
  /** Enough sessions for 200 reports at this shape's report rate. */
  val Feedback = Shape.copy(sessions = 2000)
  /** Untimed calls for this long (at least two) before the timed ones: the
    * JIT keeps compiling through the first several calls.
    */
  val WarmupS = 5.0
  /** The traced run's short open-loop stream over this corpus: warm-up and
    * window, in seconds.
    */
  val ProbeWarmupS = 4.0
  val ProbeSeconds = 6.0

  def run(ctx: Ctx): Outcome = {
    val p = setUp(ctx, Shape, Feedback)
    val spark = p.spark
    // the reference is built while untimed calls warm the batch path up
    val reference = Future(ctx.trace.span("bench.reference")(
      Reference.expected(p.models, p.classifier, p.corpus.lines.toSeq)))(ExecutionContext.global)
    val warmUntil = System.nanoTime() + (WarmupS * 1e9).toLong
    var warmCalls = 0
    while (warmCalls < 2 || System.nanoTime() < warmUntil) {
      ctx.trace.span("bench.warmup")(MoniLog.detectBatch(spark, p.corpus.raw, p.models, p.classifier).collect())
      warmCalls += 1
    }
    val expected = Await.result(reference, Duration.Inf)

    // timed: whole detectBatch calls, materialised, until `seconds` are spent (at least 3)
    val times   = scala.collection.mutable.ArrayBuffer.empty[Double]
    var first: Option[Seq[AnomalyReport]] = None
    var attempted = 0L
    var failed    = 0L
    var examples  = Vector.empty[String]
    while (times.sum < ctx.seconds || times.size < 3) {
      val (out, s) = time(ctx.trace.span("core.detect_batch", p.corpus.nLines)(
        MoniLog.detectBatch(spark, p.corpus.raw, p.models, p.classifier).collect().toSeq))
      times += s
      val chk = Reference.check(expected, out)
      attempted += chk.attempted; failed += chk.failed; examples ++= chk.examples
      if (first.isEmpty) first = Some(out)
    }
    val reports = first.get
    val oracle  = Reference.oracleEventCounts(spark, reports, p.corpus.raw)
    attempted += 1; if (oracle.isDefined) failed += 1

    // every report of a call is emitted when the call returns and its lines
    // were all due at the call's start: one latency sample per call
    val latencies = times.toSeq
    val linesPerS = p.corpus.nLines / Stats.median(times.toSeq)
    val endToEnd = Seq(Metric("setup_s", Stats.median(p.setupS), "s")) ++ alerts(latencies) ++
      quality(p, reports, p.corpus.labels.keySet)

    val perLayer =
      if (!ctx.trace.enabled) Nil
      else {
        val probe = ctx.trace.span("bench.stream_probe")(StreamRun.run(spark, p.models, p.classifier,
          p.corpus.lines.toSeq, Stream.Rate, ProbeWarmupS, ProbeSeconds, ctx.trace,
          closeMeasured = false))
        commonLayers(ctx, p, probe, Stats.median(times.toSeq), linesPerS) ++ Seq(
          Metric("check.failed_frac", failed.toDouble / attempted, "ratio"),
          Metric("trace.alert_p50_s", Stats.median(latencies), "s"))
      }
    val notes = Seq(
      f"lines_per_s = $linesPerS%.1f lines/s (${p.corpus.nLines} lines, median of ${times.size} calls: ${times.map(t => f"$t%.3f").mkString(", ")} s)",
      tailNote(latencies, "calls"),
      f"failed_frac = ${failed.toDouble / attempted}%.6f ($failed of $attempted checked session windows and oracle checks)",
      s"reports per call = ${reports.size}",
    ) ++ oracle.map(m => s"DuckDB event-count check FAILED: $m") ++ examples.distinct.take(3).map("check: " + _)
    p.release()
    Outcome(endToEnd, perLayer, attempted, failed, configOf(p) ++ Seq(
      "instability" -> Shape.instability, "payload_prob" -> Shape.payloadProb,
      "anomaly_rate" -> Shape.anomalyRate, "feedback_sessions" -> Feedback.sessions,
      "warmup_calls" -> warmCalls, "timed_calls" -> times.size), notes)
  }
}

/** Open-loop stream: the deployed mode. */
object Stream extends Workload {
  import Workload._

  val name = "stream"
  val why  = "open loop at a fixed rate through runToMemory: per-micro-batch fixed costs " +
             "dominate; payloads are pre-extracted, the fallback is bypassed"

  /** Offered rate (lines/s): today's code keeps a flat backlog at it. */
  val Rate = 300.0
  /** Lines due in the first seconds warm the query up and are not timed:
    * micro-batches keep getting faster for about this long (the JIT).
    */
  val WarmupS = 10.0
  /** Clean payload corpus; the anomaly rate gives 250+ alerts in a 12 s
    * window at this rate.
    */
  val AnomalyRate = 0.4
  /** Seconds of lines beyond the window, for the tail that waits for the
    * watermark to close the measured sessions (about 2.5 micro-batches; ten
    * times that on a busy host).
    */
  val TailS = 40.0

  /** Enough sessions (at least 5 lines each) for the warm-up, the window
    * and the tail at the offered rate.
    */
  def shape(seconds: Int): Corpus.Shape =
    Corpus.Shape(sessions = math.ceil(Rate * (WarmupS + seconds + TailS) / 5).toLong,
                 anomalyRate = AnomalyRate, payloadProb = 0.7)
  /** Enough sessions for 200 reports at this anomaly rate. */
  val FeedbackSessions = 1000L

  def run(ctx: Ctx): Outcome = {
    val shape = this.shape(ctx.seconds)
    val p = setUp(ctx, shape, shape.copy(sessions = FeedbackSessions))
    val spark = p.spark
    val expected = ctx.trace.span("bench.reference")(Reference.expected(p.models, p.classifier, p.corpus.lines.toSeq))
    val r = ctx.trace.span("bench.stream")(StreamRun.run(spark, p.models, p.classifier, p.corpus.lines.toSeq,
      Rate, WarmupS, ctx.seconds.toDouble, ctx.trace))
    val chk    = Reference.check(expected, r.reports, Some(r.closedKeys))
    val oracle = Reference.oracleEventCounts(spark, r.reports, p.corpus.raw)
    val attempted = chk.attempted + 1
    val failed    = chk.failed + (if (oracle.isDefined) 1 else 0)
    val closedSessions = r.closedKeys.map(_.sessionId)

    val endToEnd = Seq(Metric("setup_s", Stats.median(p.setupS), "s")) ++ alerts(r.latenciesS) ++
      quality(p, r.reports, closedSessions)
    val perLayer =
      if (!ctx.trace.enabled) Nil
      else {
        val (_, detectS) = time(ctx.trace.span("core.detect_batch", p.corpus.nLines)(
          MoniLog.detectBatch(spark, p.corpus.raw, p.models, p.classifier).collect()))
        commonLayers(ctx, p, r, detectS, p.corpus.nLines / detectS) ++ Seq(
          Metric("check.failed_frac", failed.toDouble / attempted, "ratio"),
          Metric("trace.alert_p50_s", Stats.median(r.latenciesS), "s"))
      }
    val late = if (r.genLateMs.isEmpty) 0.0 else Stats.quantile(r.genLateMs, 0.95)
    val notes = Seq(
      f"offered rate = $Rate%.0f lines/s in ticks of ${StreamRun.TickMs} ms; appended ${r.appended}, committed ${r.committed} in ${r.wallS}%.1f s",
      f"gen_late_p95_ms = $late%.3f ms",
      f"backlog: max ${if (r.backlog.isEmpty) 0.0 else r.backlog.map(_._2).max}%.0f lines, slope ${Stats.slope(r.settled)}%.1f lines/s over ${r.settled.size} micro-batch commits",
      s"alerts timed = ${r.latenciesS.size} (sessions due in the window: ${r.measuredSessions.size})",
      tailNote(r.latenciesS, "alerts"),
      f"failed_frac = ${failed.toDouble / attempted}%.6f ($failed of $attempted closed session windows and oracle checks)",
      "micro-batches (id: ms, input rows, state commit ms): " + r.batches.map(b =>
        s"${b.id}: ${b.durationMs.getOrElse("triggerExecution", 0L)}/${b.inputRows}/${b.stateCommitMs}").mkString(", "),
      f"micro-batches = ${r.batches.size} (median ${Stats.median(r.batches.map(_.durationMs.getOrElse("triggerExecution", 0L).toDouble))}%.0f ms), closed session windows = ${r.closedKeys.size}",
    ) ++ oracle.map(m => s"DuckDB event-count check FAILED: $m") ++ chk.examples.map("check: " + _)
    require(r.latenciesS.size >= 200, s"only ${r.latenciesS.size} alerts timed; p95 needs 200")
    p.release()
    Outcome(endToEnd, perLayer, attempted, failed, configOf(p) ++ Seq(
      "offered_rate_lines_per_s" -> Rate, "tick_ms" -> StreamRun.TickMs, "warmup_s" -> WarmupS,
      "payload_prob" -> shape.payloadProb, "anomaly_rate" -> shape.anomalyRate,
      "feedback_sessions" -> FeedbackSessions, "alerts_timed" -> r.latenciesS.size), notes)
  }
}
