package convoybench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even counts, any order") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("quartiles match Python's statistics.quantiles(n=4)") {
    // Expected values printed by CPython's statistics.quantiles(xs, n=4).
    assert(Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 5.5, 8.25)))
    assert(Stats.quartiles(Seq(1.0, 2.0)) == ((0.75, 1.5, 2.25)))
    assert(Stats.quartiles(Seq(5.0, 1.0, 4.0, 2.0, 3.0)) == ((1.5, 3.0, 4.5)))
    val ten = Seq(10.5, 9.0, 12.25, 11.0, 8.5, 10.0, 13.0, 9.5, 11.5, 10.25)
    assert(Stats.quartiles(ten) == ((9.375, 10.375, 11.6875)))
    assert(Stats.median(ten) == 10.375)
  }

  test("tail percentile keeps at least ten samples beyond it") {
    assert(Stats.tailPercentile(10).isEmpty)
    assert(Stats.tailPercentile(100).contains(90.0))
    assert(Stats.tailPercentile(1000).contains(99.0))
    for (n <- Seq(11, 37, 99, 100, 101, 250)) {
      val xs = (1 to n).map(_.toDouble)
      val p = Stats.tailPercentile(n).get
      assert(xs.count(_ > Stats.percentile(xs, p)) >= 10, s"n=$n p=$p")
    }
    // p90 is only reportable from 100 samples on.
    assert(Stats.tailPercentile(99).forall(_ < 90))
  }

  test("nearest-rank percentile") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 90) == 90.0)
    assert(Stats.percentile(xs, 100) == 100.0)
    assert(Stats.percentile(Seq(5.0, 1.0), 50) == 1.0)
  }

  private val parent = Seq(100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 103.0, 97.0, 100.0, 101.5)

  test("gain needs nine wins in ten pairs") {
    val faster = parent.map(_ - 10)
    assert(Stats.gainClaimed(parent, faster, lowerIsBetter = true))
    // Eight wins, two losses: not a gain even though the median moved.
    val eight = faster.updated(0, 200.0).updated(1, 200.0)
    assert(!Stats.gainClaimed(parent, eight, lowerIsBetter = true))
    // Ties count for neither side.
    val tied = faster.updated(0, parent(0))
    assert(Stats.gainClaimed(parent, tied, lowerIsBetter = true))
    assert(!Stats.gainClaimed(parent, tied.updated(1, parent(1)), lowerIsBetter = true))
  }

  test("gain needs a median gap wider than the parent's quartile spread") {
    val (q1, _, q3) = Stats.quartiles(parent)
    val spread = q3 - q1
    // Wins every pair, but by less than the parent's own spread.
    val slightly = parent.map(_ - spread / 4)
    assert(!Stats.gainClaimed(parent, slightly, lowerIsBetter = true))
    assert(Stats.gainClaimed(parent, parent.map(_ - 2 * spread), lowerIsBetter = true))
    // Direction: for a higher-is-better metric the same numbers are a loss.
    assert(!Stats.gainClaimed(parent, parent.map(_ - 2 * spread), lowerIsBetter = false))
    assert(Stats.gainClaimed(parent, parent.map(_ + 2 * spread), lowerIsBetter = false))
  }
}
