package perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.classify.PoolClassifier
import repro.core.MoniLog
import repro.detect.NGramModel
import repro.parse.{DistributedDrain, Drain, Preprocess, TemplateOps}
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline._

/** Per-layer timings for the traced run: calls into each module's public
  * functions, made from here, each loop wrapped in a span.
  *
  * Driver-side timings run on one thread over (at most `maxLines` of) the
  * workload's own lines, sequences and reports — the single-thread baseline.
  */
object Layers {

  val MaxLines = 200000

  private def perCall(totalNs: Long, n: Long): Double = if (n == 0) 0.0 else totalNs.toDouble / n

  private def timed(body: => Unit): Long = { val t0 = System.nanoTime(); body; System.nanoTime() - t0 }

  /** Parse, detect and classify layers, called one input at a time. */
  def driver(models: Models, classifier: PoolClassifier, lines: Seq[RawLog],
             trace: Trace): Seq[Metric] = {
    val sample = lines.take(MaxLines).toVector
    val m      = Reference.copy(models)
    var sink   = 0L // consumes results so no call is optimised away

    val cores = new Array[String](sample.size)
    val tExtract = trace.span("parse.extract_structured", sample.size)(timed {
      var i = 0
      while (i < sample.size) { cores(i) = Preprocess.extractStructured(sample(i).message)._1; i += 1 }
    })
    val tokens = new Array[Vector[String]](sample.size)
    val tTokenize = trace.span("parse.tokenize", sample.size)(timed {
      var i = 0
      while (i < sample.size) { tokens(i) = Preprocess.tokenize(cores(i)); i += 1 }
    })
    val matched = new Array[Int](sample.size)
    val tMatch = trace.span("parse.match_tokens", sample.size)(timed {
      var i = 0
      while (i < sample.size) { matched(i) = m.parser.matchTokens(tokens(i)).getOrElse(-1); i += 1 }
    })
    val misses = sample.indices.filter(i => matched(i) < 0)
    var fallbackHits = 0
    val tFallback = trace.span("parse.semantic_fallback", misses.size)(timed {
      misses.foreach { i => if (m.matcher.mapTemplate(tokens(i)).isDefined) fallbackHits += 1 }
    })
    val hits = sample.indices.filter(i => matched(i) >= 0)
    val tVars = trace.span("parse.extract_vars", hits.size)(timed {
      hits.foreach(i => sink += TemplateOps.extractVars(m.templates(matched(i)), tokens(i)).size)
    })
    val parsed = new Array[ParsedEvent](sample.size)
    val tParseOne = trace.span("parse.parse_one", sample.size)(timed {
      var i = 0
      while (i < sample.size) { parsed(i) = MoniLogPipeline.parseOne(m, sample(i)); i += 1 }
    })
    val exact    = parsed.count(_.matchedExact)
    val novel    = parsed.count(_.templateId == NovelId)
    val fallback = parsed.length - exact - novel

    val seqs = parsed.toSeq.groupBy(p => (p.source, p.sessionId)).toSeq.flatMap { case ((src, sid), evs) =>
      Reference.windows(src, sid, evs)
    }
    val ids = seqs.map(_.events.map(_.templateId))
    val tNgram = trace.span("detect.ngram", seqs.size)(timed {
      ids.foreach(s => sink += m.sequential.anomalousEvents(s).size)
    })
    val events = seqs.flatMap(_.events).filter(_.templateId != NovelId)
    val tQuant = trace.span("detect.quant_score", events.size)(timed {
      events.foreach(e => sink += m.quantitative.score(e.templateId, e.vars).toLong)
    })
    val tDetectOne = trace.span("detect.detect_one", seqs.size)(timed {
      seqs.foreach(s => sink += MoniLogPipeline.detectOne(m, s).size)
    })
    val reports = seqs.flatMap(MoniLogPipeline.detectOne(m, _))
    val feats = reports.map(Reference.features)
    val tClassify = trace.span("classify.pool_classifier", feats.size)(timed {
      feats.foreach(f => sink += classifier.classify(f)._1.length)
    })
    require(sink >= 0)

    Seq(
      Metric("parse.extract_ns", perCall(tExtract, sample.size), "ns"),
      Metric("parse.tokenize_ns", perCall(tTokenize, sample.size), "ns"),
      Metric("parse.match_ns", perCall(tMatch, sample.size), "ns"),
      Metric("parse.fallback_ns", perCall(tFallback, misses.size), "ns"),
      Metric("parse.vars_ns", perCall(tVars, hits.size), "ns"),
      Metric("parse.parse_one_ns", perCall(tParseOne, sample.size), "ns"),
      Metric("parse.exact_lines", exact, "count"),
      Metric("parse.fallback_lines", fallback, "count"),
      Metric("parse.novel_lines", novel, "count"),
      Metric("parse.exact_misses", misses.size, "count"),
      Metric("parse.fallback_hit_ratio",
             if (misses.isEmpty) 0.0 else fallbackHits.toDouble / misses.size, "ratio"),
      Metric("detect.ngram_us", perCall(tNgram, seqs.size) / 1e3, "us"),
      Metric("detect.quant_ns", perCall(tQuant, events.size), "ns"),
      Metric("detect.detect_one_us", perCall(tDetectOne, seqs.size) / 1e3, "us"),
      Metric("detect.reports_sequential", reports.count(_.kind == "sequential"), "count"),
      Metric("detect.reports_quantitative", reports.count(_.kind == "quantitative"), "count"),
      Metric("classify.report_us", perCall(tClassify, feats.size) / 1e3, "us"),
    )
  }

  /** The training layers on the workload's history: template mining (both
    * the distributed miner and single-thread Drain in grow mode) and the
    * n-gram fit.
    */
  def training(spark: SparkSession, history: DataFrame, models: Models, trace: Trace): Seq[Metric] = {
    import spark.implicits._
    val core = history.select(col("lineId").cast("long"), col("message").cast("string"))
      .as[(Long, String)].map { case (id, msg) => (id, Preprocess.extractStructured(msg)._1) }
      .toDF("lineId", "message").persist()
    val n = core.count()
    val tMine = trace.span("parse.distributed_drain", n)(timed {
      DistributedDrain.parse(core, 4, 0.5).assignments.unpersist()
    })
    val msgs = core.select(col("message")).as[String].collect()
    core.unpersist()
    val tGrow = trace.span("parse.drain_grow", msgs.length)(timed {
      val d = new Drain(4, 0.5)
      msgs.foreach(msg => d.parse(msg))
    })
    val lines = history.select(col("ts"), col("source"), col("sessionId"), col("message"))
      .as[RawLog].collect().toSeq
    val seqs = lines.map(MoniLogPipeline.parseOne(models, _))
      .groupBy(p => (p.source, p.sessionId)).values.map(_.sortBy(_.ts.getTime).map(_.templateId)).toSeq
    val tFit = trace.span("detect.ngram_fit", seqs.size)(timed {
      new NGramModel(2, 9).fit(seqs)
    })
    Seq(
      Metric("parse.mine_s", tMine / 1e9, "s"),
      Metric("parse.drain_grow_ns", perCall(tGrow, msgs.length), "ns"),
      Metric("detect.ngram_fit_s", tFit / 1e9, "s"),
    )
  }

  /** The pipeline's stages one after another over cached inputs, each
    * materialised, with the shuffle bytes the `sequence` stage writes.
    */
  def staged(spark: SparkSession, raw: org.apache.spark.sql.Dataset[RawLog], models: Models,
             classifier: PoolClassifier, trace: Trace): Seq[Metric] = {
    val bModels = MoniLog.broadcastModels(spark, models)
    val bClf    = MoniLog.broadcastClassifier(spark, classifier)
    val shuffleBytes = new java.util.concurrent.atomic.AtomicLong(0)
    @volatile var counting = false
    val listener = new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (counting && e.taskMetrics != null)
          shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      val parsed = MoniLogPipeline.parseStream(raw, bModels).persist()
      val tParse = trace.span("stream.parse_stream")(timed(parsed.count()))
      val seqs = MoniLogPipeline.sequence(parsed).persist()
      counting = true
      val tSeq = trace.span("stream.sequence")(timed(seqs.count()))
      counting = false
      val reports = MoniLogPipeline.detect(seqs, bModels).persist()
      val tDetect = trace.span("stream.detect")(timed(reports.count()))
      val tClassify = trace.span("stream.classify")(timed(
        MoniLogPipeline.classify(reports, bClf).write.format("noop").mode("overwrite").save()))
      val nSeq = seqs.count()
      Seq(parsed, seqs, reports).foreach(_.unpersist())
      Seq(
        Metric("stream.parse_s", tParse / 1e9, "s"),
        Metric("stream.sequence_s", tSeq / 1e9, "s"),
        Metric("stream.detect_s", tDetect / 1e9, "s"),
        Metric("stream.classify_s", tClassify / 1e9, "s"),
        Metric("stream.shuffle_write_mb", shuffleBytes.get / 1e6, "MB"),
        Metric("stream.sequences", nSeq.toDouble, "count"),
      )
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  /** Micro-batch metrics of an open-loop stream run. */
  def streaming(r: StreamRun.Result): Seq[Metric] = {
    val bs = if (r.measuredBatches.nonEmpty) r.measuredBatches else r.batches
    def med(f: StreamRun.Batch => Double): Double = Stats.median(bs.map(f))
    val trig = bs.map(_.durationMs.getOrElse("triggerExecution", 0L).toDouble)
    Seq(
      Metric("stream.batch_p50_ms", Stats.median(trig), "ms"),
      Metric("stream.batch_p95_ms", Stats.quantile(trig, 0.95), "ms"),
      Metric("stream.add_batch_ms", med(_.durationMs.getOrElse("addBatch", 0L).toDouble), "ms"),
      Metric("stream.wal_commit_ms", med(_.durationMs.getOrElse("walCommit", 0L).toDouble), "ms"),
      Metric("stream.commit_offsets_ms", med(_.durationMs.getOrElse("commitOffsets", 0L).toDouble), "ms"),
      Metric("stream.query_planning_ms", med(_.durationMs.getOrElse("queryPlanning", 0L).toDouble), "ms"),
      Metric("stream.state_commit_ms", med(_.stateCommitMs.toDouble), "ms"),
      Metric("stream.state_removals_ms", med(_.stateRemovalsMs.toDouble), "ms"),
      Metric("stream.state_store_instances", med(_.stateInstances.toDouble), "count"),
      Metric("stream.state_rows", med(_.stateRows.toDouble), "count"),
      Metric("stream.state_bytes", med(_.stateBytes.toDouble), "bytes"),
      Metric("stream.batches", r.batches.size.toDouble, "count"),
      Metric("stream.nodata_batches", r.batches.count(_.inputRows == 0).toDouble, "count"),
      Metric("stream.tasks_per_batch", if (bs.isEmpty) 0.0 else r.tasks.toDouble / bs.size, "count"),
      Metric("stream.dropped_by_watermark", r.batches.map(_.droppedByWatermark).sum.toDouble, "count"),
      Metric("stream.backlog_max_lines", if (r.backlog.isEmpty) 0.0 else r.backlog.map(_._2).max, "lines"),
      Metric("stream.backlog_slope", Stats.slope(r.settled), "lines/s"),
      Metric("stream.gen_late_p95_ms", if (r.genLateMs.isEmpty) 0.0 else Stats.quantile(r.genLateMs, 0.95), "ms"),
      Metric("stream.alerts", r.latenciesS.size.toDouble, "count"),
    )
  }
}
