package repro.store

import scala.collection.mutable
import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{ObjSets, Pt}
import repro.core.ObjSets.ObjSet
import repro.store.RecordingStore.Call

/** The per-run point cache answers exactly as its store does, and asks the
  * store only for what it has not read yet.
  */
class PointCacheSpec extends AnyFunSuite {

  /** Oids the datasets draw from: extremes, negatives and gaps wider than
    * `RdbmsStore`'s run split. 12345 is never stored, so it is always absent.
    */
  private val oidPool = Vector(Int.MinValue, -70000, -9, -1, 0, 1, 2, 5, 63, 64, 200, 12345, 70000, Int.MaxValue)
  private val Ts = 10
  private val Te = 15

  /** Random points over [Ts, Te]; timestamp Ts + 2 is always empty. */
  private def randomData(rng: Random): TrajData =
    TrajData(Ts, Te, Array.tabulate(Te - Ts + 1) { i =>
      if (i == 2) Array.empty[Pt]
      else oidPool.filter(o => o != 12345 && rng.nextDouble() < 0.6).map(o => Pt(o, rng.nextDouble(), rng.nextDouble())).toArray
    })

  private def stores(data: TrajData): Seq[(String, TrajectoryStore)] = Seq(
    "mem" -> new MemStore(data),
    "file" -> FileStore.create(data),
    "rdbms" -> RdbmsStore.create(data),
    "lsm" -> LsmStore.create(data, flushThreshold = 16, maxRuns = 2),
  )

  test("random snapshot/select sequences: cached answers equal the store's, and only uncovered oids are fetched") {
    for (seed <- 1 to 6) {
      val rng = new Random(seed)
      val data = randomData(rng)
      // Timestamps just outside [Ts, Te] too: every oid there is absent.
      val ops = Vector.fill(80) {
        val t = Ts - 1 + rng.nextInt(Te - Ts + 3)
        if (rng.nextInt(6) == 0) (t, None) else (t, Some(ObjSets.of(oidPool.filter(_ => rng.nextInt(3) == 0))))
      }
      val opened = stores(data)
      try opened.foreach { case (name, store) =>
        val recorder = new RecordingStore(store)
        val cache = new PointCache(recorder)
        val full = mutable.Set.empty[Int]
        val covered = mutable.Map.empty[Int, Set[Int]].withDefaultValue(Set.empty)
        def newCalls[A](f: => A): (A, Seq[Call]) = {
          val before = recorder.calls.length
          val r = f
          (r, recorder.calls.drop(before).toSeq)
        }
        ops.zipWithIndex.foreach {
          case ((t, None), i) =>
            val (got, calls) = newCalls(cache.snapshot(t))
            val ctx = s"$name seed $seed op $i snapshot($t)"
            assert(got.toSeq == store.snapshot(t).toSeq, ctx)
            assert(calls == (if (full(t)) Nil else Seq(Call(t, None))), ctx)
            full += t
          case ((t, Some(oids)), i) =>
            val missing = if (full(t)) ObjSets.empty else oids.filterNot(covered(t))
            val (got, calls) = newCalls(cache.select(t, oids))
            val ctx = s"$name seed $seed op $i select($t, $oids)"
            assert(got.toSeq == store.select(t, oids).toSeq, ctx)
            assert(calls == (if (missing.isEmpty) Nil else Seq(Call(t, Some(missing)))), ctx)
            covered(t) ++= oids
            val (again, repeatCalls) = newCalls(cache.select(t, oids))
            assert(again.toSeq == got.toSeq && repeatCalls.isEmpty, s"$ctx, repeated")
        }
        assert(cache.pointsFetched == recorder.returned.length, s"$name seed $seed")
      }
      finally opened.foreach(_._2.close())
    }
  }

  private val data = TrajData(0, 1, Array(
    Array(Pt(Int.MinValue, 0, 0), Pt(-5, 1, 0), Pt(3, 2, 0)),
    Array(Pt(Int.MinValue, 0, 1), Pt(3, 2, 1), Pt(Int.MaxValue, 4, 1)),
  ))

  private def os(xs: Int*): ObjSet = ObjSets.of(xs)

  test("a partly covered select asks only for the missing oids, and absent objects stay covered") {
    val recorder = new RecordingStore(new MemStore(data))
    val cache = new PointCache(recorder)
    assert(cache.select(1, os(-5, 3)).toSeq == Seq(Pt(3, 2, 1)))
    assert(cache.select(1, os(Int.MinValue, -5, 3, Int.MaxValue)).map(_.oid).toSeq == Seq(Int.MinValue, 3, Int.MaxValue))
    assert(cache.select(1, os(-5)).isEmpty)
    assert(cache.select(1, ObjSets.empty).isEmpty)
    assert(recorder.calls.toSeq == Seq(Call(1, Some(os(-5, 3))), Call(1, Some(os(Int.MinValue, Int.MaxValue)))))
    assert(cache.pointsFetched == 3)
  }

  test("a select after a snapshot makes no store call") {
    val recorder = new RecordingStore(new MemStore(data))
    val cache = new PointCache(recorder)
    assert(cache.snapshot(0).length == 3)
    assert(cache.select(0, os(Int.MinValue, 3, 7)).toSeq == Seq(Pt(Int.MinValue, 0, 0), Pt(3, 2, 0)))
    assert(cache.snapshot(0).length == 3)
    assert(recorder.calls.toSeq == Seq(Call(0, None)))
  }

  test("a store answer out of oid order fails loudly") {
    val reversed = new RecordingStore(new MemStore(data)) {
      override def select(t: Int, oids: ObjSet): Array[Pt] = super.select(t, oids).reverse
    }
    assertThrows[IllegalStateException](new PointCache(reversed).select(0, os(Int.MinValue, -5, 3)))
  }
}
