package perfbench

import java.time.Instant
import java.util.concurrent.atomic.AtomicLong
import java.util.concurrent.locks.LockSupport

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.{MemoryStream, StreamingQueryWrapper}
import org.apache.spark.sql.execution.streaming.sources.MemorySink
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}

import repro.classify.PoolClassifier
import repro.core.MoniLog
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline.{AnomalyReport, Models, RawLog}

/** Open-loop replay of a corpus into `MoniLogPipeline.runToMemory`.
  *
  * The calling thread is the generator: it appends the lines, in event-time
  * order, to a `MemoryStream` at a fixed offered rate, on a fixed schedule,
  * whatever the query is doing. Lines due in the first
  * `warmupS` seconds warm the query up; sessions whose last line is due in
  * the next `measureS` seconds are the measured alerts. The generator then
  * keeps the schedule until the watermark has closed every measured session
  * (unless `closeMeasured` is off: then it stops at the end of the window).
  */
object StreamRun {

  /** Appends happen every `TickMs`; see `run`. */
  val TickMs = 100L
  /** Partitions of the source, like a topic's: without a fixed count
    * `MemoryStream` makes one input partition per append.
    */
  val SourcePartitions = 4

  final case class Batch(id: Long, endMs: Long, durationMs: Map[String, Long], inputRows: Long,
                         outputRows: Long, watermarkMs: Long, stateCommitMs: Long,
                         stateRemovalsMs: Long, stateInstances: Long, stateRows: Long,
                         stateBytes: Long, droppedByWatermark: Long)

  final case class Result(
      appended: Long,
      committed: Long,
      latenciesS: Seq[Double],           // measured alerts, due → emitted
      genLateMs: Seq[Double],            // generator lateness per append
      backlog: Seq[(Double, Double)],    // (seconds into the window, lines) every tick
      settled: Seq[(Double, Double)],    // the same, sampled as each micro-batch commits
      batches: Seq[Batch],               // every micro-batch of the run
      measuredBatches: Seq[Batch],       // micro-batches ending inside the window
      tasks: Long,                       // tasks run inside the window
      reports: Seq[AnomalyReport],       // everything the sink received
      closedKeys: Set[Reference.Key],    // windows the final watermark closed
      measuredSessions: Set[String],
      wallS: Double,
  )

  private def progressBatch(p: StreamingQueryProgress): Batch = {
    val dur = p.durationMs.asScala.view.mapValues(_.longValue).toMap
    val st  = p.stateOperators.headOption
    Batch(p.batchId,
          Instant.parse(p.timestamp).toEpochMilli + dur.getOrElse("triggerExecution", 0L),
          dur, p.numInputRows, Option(p.sink.numOutputRows).map(_.toLong).getOrElse(0L),
          Option(p.eventTime.get("watermark")).map(Instant.parse(_).toEpochMilli).getOrElse(0L),
          st.map(_.commitTimeMs).getOrElse(0L), st.map(_.allRemovalsTimeMs).getOrElse(0L),
          st.map(_.numStateStoreInstances).getOrElse(0L), st.map(_.numRowsTotal).getOrElse(0L),
          st.map(_.memoryUsedBytes).getOrElse(0L), st.map(_.numRowsDroppedByWatermark).getOrElse(0L))
  }

  def run(spark: SparkSession, models: Models, classifier: PoolClassifier,
          lines: Seq[RawLog], rate: Double, warmupS: Double, measureS: Double,
          trace: Trace, closeMeasured: Boolean = true): Result = {
    import spark.implicits._
    implicit val sql: org.apache.spark.sql.SQLContext = spark.sqlContext

    val ordered = lines.sortBy(l => (l.ts.getTime, l.sessionId)).toArray
    val mem     = MemoryStream[RawLog](SourcePartitions)
    val committed = new AtomicLong(0)
    val tasks     = new AtomicLong(0)
    @volatile var counting = false

    val queryListener = new StreamingQueryListener {
      def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
      def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
      def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = {
        committed.addAndGet(e.progress.numInputRows)
      }
    }
    val taskListener = new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = if (counting) tasks.incrementAndGet()
    }
    spark.streams.addListener(queryListener)
    spark.sparkContext.addSparkListener(taskListener)

    val query = trace.span("stream.run_to_memory")(MoniLogPipeline.runToMemory(
      mem.toDS(), MoniLog.broadcastModels(spark, models),
      MoniLog.broadcastClassifier(spark, classifier), "monilog_bench"))
    val sink = query.asInstanceOf[StreamingQueryWrapper].streamingQuery.sink.asInstanceOf[MemorySink]

    // Lines go out in ticks of `TickMs`: tick k carries the `perTick` lines
    // that follow tick k-1 and is due k ticks after the start. A line is due
    // when its tick is.
    val perTick   = math.max(1, math.round(rate * TickMs / 1000.0).toInt)
    val tickNs    = TickMs * 1000000L
    val startWall = System.currentTimeMillis() + 50
    val startNano = System.nanoTime() + 50L * 1000000L
    def dueNano(i: Int): Long = startNano + (i / perTick) * tickNs
    def dueWallMs(i: Int): Double = startWall + (i / perTick) * TickMs.toDouble
    val measureFrom = (warmupS * 1000 / TickMs).toInt * perTick
    val measureTo   = math.min(ordered.length, ((warmupS + measureS) * 1000 / TickMs).toInt * perTick)
    require(measureTo > measureFrom, "corpus too small for the measured window")

    // sessions whose last line is due inside the window: the measured alerts
    val lastIdx = scala.collection.mutable.HashMap.empty[(String, String), Int]
    ordered.indices.foreach(i => lastIdx((ordered(i).source, ordered(i).sessionId)) = i)
    val measured = lastIdx.iterator.collect {
      case (k, i) if i >= measureFrom && i < measureTo => k -> i
    }.toMap
    val needWatermark = measured.values.map(i => ordered(i).ts.getTime + Reference.GapMs).maxOption.getOrElse(0L)

    val late    = scala.collection.mutable.ArrayBuffer.empty[Double]
    val backlog = scala.collection.mutable.ArrayBuffer.empty[(Double, Double)]
    val settled = scala.collection.mutable.ArrayBuffer.empty[(Double, Double)]
    var seenCommitted = 0L
    var appended = 0
    val t0 = System.nanoTime()
    def watermark: Long = Option(query.lastProgress).map(progressBatch(_).watermarkMs).getOrElse(0L)
    try {
      while (appended < ordered.length &&
             !(appended >= measureTo && (!closeMeasured || watermark >= needWatermark))) {
        val wait = dueNano(appended) - System.nanoTime()
        if (wait > 0) LockSupport.parkNanos(wait)
        else {
          val now  = System.nanoTime()
          val next = math.min(ordered.length, appended + perTick)
          val inWindow = appended >= measureFrom && appended < measureTo
          counting = inWindow
          val done = committed.get
          val at   = (now - dueNano(measureFrom)) / 1e9
          if (inWindow) {
            late += (now - dueNano(appended)) / 1e6
            backlog += ((at, (appended - done).toDouble))
          }
          // after the warm-up, the backlog a micro-batch leaves behind: flat
          // over time when the query keeps up with the offered rate
          if (appended >= measureFrom && done != seenCommitted) settled += ((at, (appended - done).toDouble))
          seenCommitted = done
          trace.span("stream.add_data", next - appended)(mem.addData(ordered.slice(appended, next).toSeq))
          appended = next
          if (!query.isActive) throw query.exception.map(e => e: Throwable)
            .getOrElse(new IllegalStateException("query stopped"))
        }
      }
      require(!closeMeasured || watermark >= needWatermark,
              s"corpus ran out before the watermark closed the measured sessions")
      // the micro-batch that reported this watermark has emitted every
      // measured alert; the one in flight is cut off and not counted
    } finally {
      query.stop()
      spark.streams.removeListener(queryListener)
      spark.sparkContext.removeSparkListener(taskListener)
    }
    val wallS = (System.nanoTime() - t0) / 1e9
    // the query's own progress log, complete up to its last micro-batch
    val batches = query.recentProgress.toSeq.map(progressBatch).sortBy(_.id)
    require(batches.headOption.forall(_.id == 0), "progress log lost early micro-batches")
    // rows of each micro-batch: the sink keeps them in batch order
    val rowsByBatch: Seq[(Batch, Seq[Row])] = batches.map { b =>
      val since = sink.dataSinceBatch(b.id - 1)
      b -> since.take(since.size - sink.dataSinceBatch(b.id).size)
    }
    val reports = rowsByBatch.flatMap { case (b, rows) => rows.map(r => b -> fromRow(r)) }
    val latencies = reports.collect {
      case (b, r) if measured.contains((r.source, r.sessionId)) =>
        (b.endMs - dueWallMs(measured((r.source, r.sessionId)))) / 1e3
    }
    val finalWm = batches.lastOption.map(_.watermarkMs).getOrElse(0L)
    val closed = ordered.groupBy(l => (l.source, l.sessionId)).iterator.flatMap { case ((src, sid), ls) =>
      Reference.windows(src, sid, ls.map(l => MoniLogPipeline.ParsedEvent(l.ts, src, sid, 0, matchedExact = true, Nil)).toSeq)
        .filter(w => w.events.map(_.ts.getTime).max + Reference.GapMs <= finalWm)
        .map(w => Reference.Key(src, sid, w.windowStart.getTime))
    }.toSet
    val windowEnd = dueWallMs(measureTo)
    Result(appended.toLong, committed.get, latencies.toSeq, late.toSeq, backlog.toSeq, settled.toSeq,
           batches, batches.filter(b => b.endMs >= dueWallMs(measureFrom) && b.endMs <= windowEnd),
           tasks.get, reports.map(_._2), closed, measured.keySet.map(_._2), wallS)
  }

  private def fromRow(r: Row): AnomalyReport = AnomalyReport(
    r.getAs[java.sql.Timestamp]("windowStart"), r.getAs[String]("source"),
    r.getAs[String]("sessionId"), r.getAs[String]("kind"),
    r.getSeq[Int](r.fieldIndex("events")), r.getSeq[Int](r.fieldIndex("anomalousIdx")),
    r.getAs[Double]("score"), r.getAs[String]("pool"), r.getAs[String]("criticality"))
}
