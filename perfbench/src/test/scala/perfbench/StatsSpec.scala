package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private def ramp(n: Int): Seq[Double] = (1 to n).map(_.toDouble)

  test("quantile interpolates between order statistics") {
    assert(Stats.quantile(Seq(1.0, 2.0, 3.0, 4.0), 0.5) == 2.5)
    assert(Stats.quantile(Seq(5.0), 0.95) == 5.0)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
  }

  test("tail picks p95 when 200 samples leave at least 10 beyond it") {
    val t = Stats.tail(ramp(200)).get
    assert(t.percentile == 95.0)
    assert(t.samples == 200)
    assert(t.beyond >= 10)
    assert(math.abs(t.value - Stats.quantile(ramp(200), 0.95)) < 1e-12)
  }

  test("tail moves up to p99 once 1000 samples allow it") {
    val t = Stats.tail(ramp(1000)).get
    assert(t.percentile == 99.0)
    assert(t.beyond == 10)
  }

  test("tail falls back to a lower percentile on few samples") {
    val t = Stats.tail(ramp(40)).get
    assert(t.percentile == 75.0)
    assert(t.beyond >= 10)
  }

  test("tail is None with fewer than 10 samples beyond any percentile") {
    assert(Stats.tail(ramp(9)).isEmpty)
    assert(Stats.tail(ramp(19)).isEmpty)
    assert(Stats.tail(ramp(20)).map(_.percentile).contains(50.0))
    assert(Stats.tail(Nil).isEmpty)
  }

  test("beyond counts samples strictly above the percentile rank") {
    assert(Stats.beyond(200, 95.0) == 10)
    assert(Stats.beyond(21, 50.0) == 10)
    assert(Stats.beyond(0, 50.0) == 0)
  }

  test("slope is zero on a flat series and recovers a linear trend") {
    assert(Stats.slope(Seq((0.0, 5.0), (1.0, 5.0), (2.0, 5.0))) == 0.0)
    assert(math.abs(Stats.slope(Seq((0.0, 1.0), (1.0, 3.0), (2.0, 5.0))) - 2.0) < 1e-12)
    assert(Stats.slope(Seq((1.0, 1.0))) == 0.0)
  }
}
