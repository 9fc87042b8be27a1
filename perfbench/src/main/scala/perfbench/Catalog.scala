package perfbench

/** One measured value. */
final case class Metric(name: String, value: Double, unit: String)

/** Every metric the benchmark reports, with its unit and what it is for.
  * BENCHMARK.json lists the same names (a test keeps the two in step).
  */
object Catalog {

  final case class Entry(name: String, unit: String, better: String, about: String)

  /** End-to-end metrics: in the final JSON of every untraced run. */
  val endToEnd: Seq[Entry] = Seq(
    Entry("setup_s", "s", "lower",
      "median of three set-up rounds, each MoniLog.train plus classifier feedback (round 1 runs cold)"),
    Entry("alert_p50_s", "s", "lower",
      "median time from when a session's last line was due to when its report was emitted"),
    Entry("alert_p95_s", "s", "lower", "the same at p95"),
    Entry("session_f1", "ratio", "higher", "session-level F1 of the reports against ground truth"),
    Entry("pool_acc", "ratio", "higher", "share of reports routed to the simulated administrator's pool"),
  )

  /** Per-layer metrics: in the final JSON of every traced run, each with the
    * end-to-end metric it should move and the workload it moves it on.
    */
  val perLayer: Seq[Entry] = Seq(
    Entry("logs.generate_s", "s", "lower", "cold_setup_s in the configuration record"),
    Entry("parse.extract_ns", "ns", "lower", "alert_p50_s on stream (payloads); flat on batch-unstable"),
    Entry("parse.tokenize_ns", "ns", "lower", "alert_p50_s on batch-unstable"),
    Entry("parse.match_ns", "ns", "lower", "alert_p50_s on batch-unstable"),
    Entry("parse.fallback_ns", "ns", "lower", "alert_p50_s on batch-unstable; flat on stream"),
    Entry("parse.vars_ns", "ns", "lower", "alert_p50_s on batch-unstable"),
    Entry("parse.parse_one_ns", "ns", "lower", "alert_p50_s on batch-unstable"),
    Entry("parse.exact_lines", "count", "higher", "none (must not change)"),
    Entry("parse.fallback_lines", "count", "lower", "none (must not change)"),
    Entry("parse.novel_lines", "count", "lower", "none (must not change)"),
    Entry("parse.exact_misses", "count", "lower", "none (must not change)"),
    Entry("parse.fallback_hit_ratio", "ratio", "higher", "session_f1 on batch-unstable"),
    Entry("parse.mine_s", "s", "lower", "setup_s on both"),
    Entry("parse.drain_grow_ns", "ns", "lower", "setup_s on both"),
    Entry("stream.parse_s", "s", "lower", "alert_p50_s on batch-unstable"),
    Entry("stream.sequence_s", "s", "lower", "alert_p50_s on batch-unstable"),
    Entry("stream.detect_s", "s", "lower", "alert_p50_s on batch-unstable"),
    Entry("stream.classify_s", "s", "lower", "alert_p50_s on batch-unstable"),
    Entry("stream.shuffle_write_mb", "MB", "lower", "alert_p50_s on batch-unstable"),
    Entry("stream.sequences", "count", "higher", "none"),
    Entry("stream.batch_p50_ms", "ms", "lower", "alert_p50_s on stream"),
    Entry("stream.batch_p95_ms", "ms", "lower", "alert_p95_s on stream"),
    Entry("stream.add_batch_ms", "ms", "lower", "alert_p50_s on stream"),
    Entry("stream.wal_commit_ms", "ms", "lower", "alert_p50_s on stream"),
    Entry("stream.commit_offsets_ms", "ms", "lower", "alert_p50_s on stream"),
    Entry("stream.query_planning_ms", "ms", "lower", "alert_p50_s on stream"),
    Entry("stream.state_commit_ms", "ms", "lower", "alert_p50_s on stream"),
    Entry("stream.state_removals_ms", "ms", "lower", "alert_p50_s on stream"),
    Entry("stream.state_store_instances", "count", "lower", "alert_p50_s on stream"),
    Entry("stream.state_rows", "count", "lower", "alert_p50_s on stream"),
    Entry("stream.state_bytes", "bytes", "lower", "alert_p50_s on stream"),
    Entry("stream.batches", "count", "higher", "alert_p50_s on stream"),
    Entry("stream.nodata_batches", "count", "lower", "alert_p50_s on stream"),
    Entry("stream.tasks_per_batch", "count", "lower", "alert_p50_s on stream"),
    Entry("stream.dropped_by_watermark", "count", "lower", "failed operations on stream (expected 0)"),
    Entry("stream.backlog_max_lines", "lines", "lower", "alert_p95_s on stream"),
    Entry("stream.backlog_slope", "lines/s", "lower", "alert_p95_s on stream (flat = keeps up)"),
    Entry("stream.gen_late_p95_ms", "ms", "lower", "none (validity of the open loop)"),
    Entry("stream.alerts", "count", "higher", "none (sample size of alert_p95_s)"),
    Entry("detect.ngram_us", "us", "lower", "alert_p50_s on batch-unstable"),
    Entry("detect.quant_ns", "ns", "lower", "alert_p50_s on batch-unstable"),
    Entry("detect.detect_one_us", "us", "lower", "alert_p50_s on batch-unstable"),
    Entry("detect.reports_sequential", "count", "lower", "none"),
    Entry("detect.reports_quantitative", "count", "lower", "none"),
    Entry("detect.ngram_fit_s", "s", "lower", "setup_s on both"),
    Entry("classify.report_us", "us", "lower", "alert_p50_s on batch-unstable"),
    Entry("core.train_s", "s", "lower", "setup_s on both"),
    Entry("core.detect_batch_s", "s", "lower", "alert_p50_s on batch-unstable"),
    Entry("core.lines_per_s", "lines/s", "higher", "alert_p50_s on batch-unstable"),
    Entry("check.failed_frac", "ratio", "lower", "none (failed operations / attempted)"),
    Entry("trace.alert_p50_s", "s", "lower", "none (traced alert_p50_s; minus the untraced one = tracing overhead)"),
  )

  def entry(name: String): Option[Entry] = (endToEnd ++ perLayer).find(_.name == name)
}
