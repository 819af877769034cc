package convoybench

/** Order statistics for the benchmark's reported timings and for comparing
  * two sets of runs.
  */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The three cut points that divide `xs` into quarters, computed exactly
    * as Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
    * method), so the benchmark and whoever checks its runs agree.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.length >= 2, "quartiles need at least two samples")
    val s = xs.sorted
    val m = s.length + 1
    def cut(i: Int): Double = {
      val j = math.min(math.max(i * m / 4, 1), s.length - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4
    }
    (cut(1), cut(2), cut(3))
  }

  /** The highest percentile of `n` samples that still has at least
    * `beyond` samples above it, or None when `n` is too small for any.
    */
  def tailPercentile(n: Int, beyond: Int = 10): Option[Double] =
    if (n <= beyond) None else Some(100.0 * (n - beyond) / n)

  /** Nearest-rank value at percentile `p` (0 < p ≤ 100). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty && p > 0 && p <= 100, s"percentile $p of ${xs.length} samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100 * s.length).toInt - 1))
  }

  /** The gain rule for paired runs: the change wins at least nine in ten
    * pairs (ties count for neither side) and the medians differ by more than
    * the parent's own quartile spread.
    */
  def gainClaimed(parent: Seq[Double], change: Seq[Double], lowerIsBetter: Boolean): Boolean = {
    require(parent.length == change.length && parent.length >= 2, "need equal counts of paired runs")
    val wins = parent.zip(change).count { case (p, c) => if (lowerIsBetter) c < p else c > p }
    val (q1, _, q3) = quartiles(parent)
    val gap = if (lowerIsBetter) median(parent) - median(change) else median(change) - median(parent)
    wins * 10 >= parent.length * 9 && gap > q3 - q1
  }
}
