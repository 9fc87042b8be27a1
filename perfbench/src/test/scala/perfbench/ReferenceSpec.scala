package perfbench

import java.sql.Timestamp

import org.scalatest.funsuite.AnyFunSuite

import repro.stream.MoniLogPipeline.{AnomalyReport, ParsedEvent}

class ReferenceSpec extends AnyFunSuite {

  private def ev(ms: Long, tid: Int, vars: String*) =
    ParsedEvent(new Timestamp(ms), "net", "s1", tid, matchedExact = true, vars)

  private def report(sid: String, startMs: Long, kind: String = "sequential") =
    AnomalyReport(new Timestamp(startMs), "net", sid, kind, Seq(1, 2), Seq(1), 1.0, "ops-net", "low")

  test("windows cut a session where the gap exceeds the session gap") {
    val rows = Reference.windows("net", "s1", Seq(ev(15000, 4), ev(0, 1), ev(4999, 2), ev(9998, 3)), 5000L)
    assert(rows.map(_.events.map(_.templateId)) == Seq(Seq(1, 2, 3), Seq(4)))
    assert(rows.map(_.windowStart.getTime) == Seq(0L, 15000L))
  }

  test("events inside a window sort by time, then template, then variables") {
    val rows = Reference.windows("net", "s1", Seq(ev(10, 2, "b"), ev(10, 2, "a"), ev(10, 1), ev(5, 9)), 5000L)
    assert(rows.head.events.map(e => (e.templateId, e.vars)) ==
             Seq((9, Nil), (1, Nil), (2, Seq("a")), (2, Seq("b"))))
  }

  test("check counts missing, extra, different and duplicate reports as failures") {
    val k = (sid: String) => Reference.Key("net", sid, 0L)
    val expected = Map(
      k("ok") -> Some(report("ok", 0)), k("quiet") -> None, k("missing") -> Some(report("missing", 0)),
      k("differs") -> Some(report("differs", 0)), k("extra") -> None, k("twice") -> Some(report("twice", 0)))
    val got = Seq(report("ok", 0), report("differs", 0, "quantitative"), report("extra", 0),
                  report("twice", 0), report("twice", 0))
    val chk = Reference.check(expected, got)
    assert(chk.attempted == 6)
    assert(chk.failed == 4)
  }

  test("check restricted to closed windows counts reports outside them") {
    val k = Reference.Key("net", "a", 0L)
    val chk = Reference.check(Map(k -> None), Seq(report("b", 0)), Some(Set(k)))
    assert(chk.attempted == 1 && chk.failed == 1)
  }

  test("session F1 and pool accuracy") {
    val labels = Map("a" -> "sequential", "b" -> "normal", "c" -> "quantitative")
    assert(Reference.sessionF1(Seq(report("a", 0), report("b", 0)), labels, labels.keySet) == 0.5)
    val routed = report("a", 0).copy(source = "auth", pool = "security")
    assert(Reference.poolAccuracy(Seq(routed, routed.copy(pool = "default"))) == 0.5)
  }
}
