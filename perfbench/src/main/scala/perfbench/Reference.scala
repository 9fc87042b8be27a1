package perfbench

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.sql.Timestamp
import java.util.concurrent.{Callable, Executors}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.Oracle
import repro.classify.PoolClassifier
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline._
import repro.tables.T7Classifier

/** The reference the program's reports are checked against, built on the
  * driver from the pipeline's pure functions: `parseOne` → per-(source,
  * session) events cut into session windows and sorted as `sequence` sorts
  * them → `detectOne` → the classifier.
  */
object Reference {

  /** The pipeline's default session gap (`MoniLogPipeline.sequence`). */
  val GapMs = 5000L

  /** A session window: the unit one report (or none) belongs to. */
  final case class Key(source: String, sessionId: String, windowStartMs: Long)

  def keyOf(r: AnomalyReport): Key = Key(r.source, r.sessionId, r.windowStart.getTime)

  private val eventOrder: Ordering[EventRec] = {
    import Ordering.Implicits._
    Ordering.by[EventRec, (Long, Int, Int, Seq[String])](e =>
      (e.ts.getTime, e.ts.getNanos, e.templateId, e.vars))
  }

  /** Session windows of one key's events, as `session_window(ts, gap)` cuts
    * them: a new window starts when an event is `gap` or more after the
    * latest event of the current one.
    */
  def windows(source: String, sessionId: String, events: Seq[ParsedEvent],
              gapMs: Long = GapMs): Seq[SeqRow] = {
    val cuts   = scala.collection.mutable.ArrayBuffer.empty[Vector[ParsedEvent]]
    var cur    = Vector.empty[ParsedEvent]
    var latest = 0L
    events.sortBy(_.ts.getTime).foreach { e =>
      if (cur.nonEmpty && e.ts.getTime >= latest + gapMs) { cuts += cur; cur = Vector.empty }
      cur :+= e
      latest = e.ts.getTime
    }
    if (cur.nonEmpty) cuts += cur
    cuts.toSeq.map { w =>
      val evs = w.map(e => EventRec(e.ts, e.templateId, e.vars)).sorted(eventOrder)
      SeqRow(new Timestamp(w.map(_.ts.getTime).min), source, sessionId, evs)
    }
  }

  /** Expected output: for every session window, its classified report or
    * None. Runs on `threads` driver threads, each with its own copy of the
    * models (the frozen parser serialises concurrent callers).
    */
  def expected(models: Models, classifier: PoolClassifier,
               lines: Seq[RawLog]): Map[Key, Option[AnomalyReport]] = {
    val threads = 4
    val bySession = lines.groupBy(l => (l.source, l.sessionId)).toSeq
    val parts = bySession.grouped(math.max(1, (bySession.size + threads - 1) / threads)).toSeq
    val pool  = Executors.newFixedThreadPool(threads)
    try {
      val futures = parts.map { part =>
        pool.submit(new Callable[Seq[(Key, Option[AnomalyReport])]] {
          def call(): Seq[(Key, Option[AnomalyReport])] = {
            val m = copy(models)
            part.flatMap { case ((src, sid), ls) =>
              windows(src, sid, ls.map(parseOne(m, _))).map { row =>
                Key(src, sid, row.windowStart.getTime) -> detectOne(m, row).map(classified(classifier, _))
              }
            }
          }
        })
      }
      futures.flatMap(_.get()).toMap
    } finally pool.shutdownNow()
  }

  def classified(classifier: PoolClassifier, r: AnomalyReport): AnomalyReport = {
    val (pool, crit) = classifier.classify(features(r))
    r.copy(pool = pool, criticality = crit)
  }

  def features(r: AnomalyReport): PoolClassifier.ReportFeatures =
    PoolClassifier.ReportFeatures(r.source, r.kind, r.events.distinct)

  def copy[A <: Serializable](a: A): A = {
    val bytes = new ByteArrayOutputStream()
    val out   = new ObjectOutputStream(bytes)
    out.writeObject(a); out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[A]
  }

  /** Outcome of checking one output against the reference. */
  final case class Check(attempted: Long, failed: Long, examples: Seq[String])

  /** Compare reports against the reference over `keys` (default: every
    * session window). A window whose report is missing, extra, duplicated
    * or different is one failed operation, as is a report for a window
    * outside `keys`.
    */
  def check(expected: Map[Key, Option[AnomalyReport]], got: Seq[AnomalyReport],
            keys: Option[Set[Key]] = None): Check = {
    val universe = keys.getOrElse(expected.keySet)
    val byKey    = got.groupBy(keyOf)
    val bad = universe.toSeq.flatMap { k =>
      val exp = expected.getOrElse(k, None)
      byKey.getOrElse(k, Nil) match {
        case Seq()  => exp.map(e => s"missing report for $k (${e.kind})")
        case Seq(r) => if (exp.contains(r)) None
                       else Some(exp.fold(s"extra report for $k (${r.kind})")(e => s"different report for $k: got $r, want $e"))
        case rs     => Some(s"${rs.size} reports for $k")
      }
    }
    val stray = byKey.keySet.diff(universe)
    Check(universe.size.toLong, bad.size.toLong + stray.size,
          (bad ++ stray.map(k => s"report for unknown window $k")).take(3))
  }

  /** Session-level F1 of the reports against ground truth, over `sessions`. */
  def sessionF1(reports: Seq[AnomalyReport], labels: Map[String, String],
                sessions: Set[String]): Double = {
    val flagged = reports.map(_.sessionId).toSet.intersect(sessions)
    val truth   = sessions.filter(s => labels.get(s).exists(_ != "normal"))
    val tp = flagged.intersect(truth).size.toDouble
    if (tp == 0) 0.0 else 2 * tp / (flagged.size + truth.size)
  }

  /** Share of reports routed to the simulated administrator's pool. */
  def poolAccuracy(reports: Seq[AnomalyReport]): Double =
    if (reports.isEmpty) 0.0
    else reports.count(r => r.pool == T7Classifier.policyPool(features(r))).toDouble / reports.size

  /** Reports whose event counts go through DuckDB (the oracle loads rows
    * one by one over JDBC).
    */
  val OracleSample = 1500

  /** Count of events per reported session, checked against DuckDB over the
    * raw lines through [[repro.Oracle]]. Returns a failure message or None.
    */
  def oracleEventCounts(spark: SparkSession, reports: Seq[AnomalyReport],
                        raw: org.apache.spark.sql.Dataset[RawLog]): Option[String] = {
    import spark.implicits._
    val chosen = reports.sortBy(r => (r.sessionId, r.windowStart.getTime)).take(OracleSample)
    if (chosen.isEmpty) return None
    val ids = chosen.map(_.sessionId).distinct
    // one window per session here, so a report's events are its session's lines
    val got = chosen.map(r => (r.sessionId, r.events.size)).toDF("sessionId", "n")
    val lines = raw.where(col("sessionId").isin(ids: _*)).select(col("sessionId"))
    try {
      Oracle.assertEquivalent(got,
        "SELECT sessionId, CAST(count(*) AS INTEGER) AS n FROM lines GROUP BY sessionId",
        "lines" -> lines)
      None
    } catch { case e: IllegalArgumentException => Some(e.getMessage) }
  }

  /** Reports sorted for stable output. */
  def sorted(rs: Seq[AnomalyReport]): Seq[AnomalyReport] =
    rs.sortBy(r => (r.windowStart.getTime, r.source, r.sessionId))
}
