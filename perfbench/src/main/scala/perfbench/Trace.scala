package perfbench

import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span covers one call (or one loop of calls, with `count` of them) made
  * by the benchmark into a module of the program. Spans nest per thread;
  * every span of a run carries the run id. Nothing is recorded unless
  * `enabled`, so untraced runs pay one branch per call site.
  */
final class Trace(val enabled: Boolean, val runId: String) {
  import Trace._

  private val ids   = new AtomicLong(0)
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val stack = new ThreadLocal[List[Long]] { override def initialValue(): List[Long] = Nil }

  def span[A](name: String, count: Long = 1)(body: => A): A =
    if (!enabled) body
    else {
      val id     = ids.incrementAndGet()
      val parent = stack.get.headOption.getOrElse(0L)
      stack.set(id :: stack.get)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack.set(stack.get.tail)
        spans.synchronized { spans += Span(runId, id, parent, name, t0, t1, count) }
      }
    }

  def all: Seq[Span] = spans.synchronized(spans.toVector)

  /** Self time per span name: its duration minus what its children cover. */
  def selfTimes: Map[String, Double] = {
    val s        = all
    val childSum = s.groupBy(_.parent).view.mapValues(_.map(_.durS).sum).toMap
    s.groupBy(_.name).view.mapValues(_.map(x => x.durS - childSum.getOrElse(x.id, 0.0)).sum).toMap
  }

  def toJsonLines: Seq[String] = all.sortBy(_.id).map(_.toJson)
}

object Trace {
  final case class Span(run: String, id: Long, parent: Long, name: String,
                        startNs: Long, endNs: Long, count: Long) {
    def durS: Double = (endNs - startNs) / 1e9
    def layer: String = name.takeWhile(_ != '.')
    def toJson: String = Json.obj(
      "run" -> run, "id" -> id, "parent" -> parent, "name" -> name,
      "start_ns" -> startNs, "end_ns" -> endNs, "count" -> count)
  }
}
