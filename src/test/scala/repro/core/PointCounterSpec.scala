package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.data.TrajGen

/** `PointCounter.clusterAll` is `PointCounter.cluster` per snapshot: the
  * same clusters in input order and the same count, although the snapshots
  * are clustered on the common fork-join pool.
  */
class PointCounterSpec extends AnyFunSuite {

  private val data = TrajGen.brinkhoffLite(scale = 0.5)

  /** Every 7th snapshot of `data`, with an empty snapshot and one cut below
    * `m` points in front, in the middle and at the end.
    */
  private def snapshots(m: Int): Vector[Array[Pt]] = {
    val taken = (data.ts to data.te by 7).map(data.snapshot).toVector
    val (a, b) = taken.splitAt(taken.length / 2)
    val odd = Vector(Array.empty[Pt], taken.last.take(m - 1))
    odd ++ a ++ odd ++ b ++ odd
  }

  test("clusterAll equals counter.cluster per snapshot, in input order and count") {
    for ((eps, m) <- Seq((25.0, 3), (60.0, 5)); indexed <- Seq(true, false)) {
      val snaps = snapshots(m)
      assert(snaps.exists(_.length >= 64), "some snapshot reaches the grid backend")
      val (one, all) = (new PointCounter, new PointCounter)
      val want = snaps.map(one.cluster(_, eps, m, indexed))
      val got = all.clusterAll(snaps, eps, m, indexed)
      assert(got == want, s"eps=$eps m=$m indexed=$indexed")
      assert(all.n == one.n && one.n == snaps.iterator.map(_.length.toLong).sum, s"eps=$eps m=$m indexed=$indexed")
      assert(want.exists(_.nonEmpty), "some snapshot has clusters")
    }
  }

  test("clusterAll of no snapshots is empty and counts nothing") {
    val counter = new PointCounter
    counter.add(5)
    assert(counter.clusterAll(Seq.empty, 25.0, 3).isEmpty)
    assert(counter.n == 5)
  }

  test("one snapshot clustered by many pool tasks at once gives the same clusters every time") {
    val snap = (data.ts to data.te).map(data.snapshot).maxBy(_.length)
    assert(snap.length >= 64, "the snapshot reaches the grid backend")
    for (indexed <- Seq(true, false)) {
      val want = DBSCAN.cluster(snap, 25.0, 3, indexed)
      assert(want.nonEmpty)
      for (round <- 1 to 5) {
        val got = new PointCounter().clusterAll(Vector.fill(64)(snap), 25.0, 3, indexed)
        assert(got.forall(_ == want), s"round $round, indexed=$indexed")
      }
    }
  }
}
