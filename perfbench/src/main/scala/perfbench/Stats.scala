package perfbench

/** Order statistics for benchmark samples. */
object Stats {

  /** Linear-interpolation quantile (the "inclusive" method, as Python's
    * `statistics.quantiles(method="inclusive")` and numpy's default).
    */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s   = xs.sorted.toIndexedSeq
    val pos = q * (s.size - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** A tail percentile together with the samples it rests on. */
  final case class Tail(percentile: Double, value: Double, samples: Int, beyond: Int)

  /** Percentiles a tail may be reported at, highest first. */
  val TailPercentiles: Seq[Double] = Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

  /** The highest of `TailPercentiles` that has at least 10 samples above
    * it, with its value and the sample count. None when even the median has
    * fewer — the tail cannot be reported from this run.
    */
  def tail(xs: Seq[Double]): Option[Tail] =
    TailPercentiles.iterator
      .map(p => (p, beyond(xs.size, p)))
      .collectFirst { case (p, b) if b >= 10 =>
        Tail(p, quantile(xs, p / 100.0), xs.size, b)
      }

  /** Samples strictly beyond the p-th percentile rank of n samples. */
  def beyond(n: Int, p: Double): Int =
    if (n == 0) 0 else n - 1 - math.floor(p / 100.0 * (n - 1)).toInt

  /** Least-squares slope of y over x (0 for fewer than two points). */
  def slope(points: Seq[(Double, Double)]): Double =
    if (points.size < 2) 0.0
    else {
      val n  = points.size.toDouble
      val mx = points.map(_._1).sum / n
      val my = points.map(_._2).sum / n
      val sxx = points.map { case (x, _) => (x - mx) * (x - mx) }.sum
      if (sxx == 0.0) 0.0
      else points.map { case (x, y) => (x - mx) * (y - my) }.sum / sxx
    }
}
