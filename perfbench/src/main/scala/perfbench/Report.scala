package perfbench

/** Human-readable summaries of a traced run. */
object Report {

  /** Self time per span name and per layer (the span name's prefix), with
    * its share of the run's root span.
    */
  def traceSummary(trace: Trace): Seq[String] = {
    val spans = trace.all
    val total = spans.filter(_.parent == 0).map(_.durS).sum
    val self  = trace.selfTimes
    def share(s: Double) = if (total == 0) 0.0 else 100 * s / total
    val byName = self.toSeq.sortBy(-_._2).map { case (n, s) =>
      val calls = spans.filter(_.name == n)
      f"span    $n%-28s self ${s}%10.4f s  ${share(s)}%6.2f%%  spans ${calls.size}%6d  calls ${calls.map(_.count).sum}%9d"
    }
    val byLayer = self.toSeq.groupBy(_._1.takeWhile(_ != '.')).view.mapValues(_.map(_._2).sum)
      .toSeq.sortBy(-_._2).map { case (l, s) => f"layer-self $l%-10s ${s}%10.4f s  ${share(s)}%6.2f%% of the run" }
    (f"trace   ${spans.size} spans, run total $total%.4f s (self time = span minus its children)" +: byName) ++ byLayer
  }
}
