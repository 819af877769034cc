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
      def someT = Ts - 1 + rng.nextInt(Te - Ts + 3)
      def someOids = ObjSets.of(oidPool.filter(_ => rng.nextInt(3) == 0))
      // Each op is a snapshot (0) of the first request's t, a selectMany
      // (1, 2) of all its requests, or a select (3 to 5) of the first.
      val ops = Vector.fill(80)((rng.nextInt(6), Vector.fill(1 + rng.nextInt(3))((someT, someOids))))
      val opened = stores(data)
      try opened.foreach { case (name, store) =>
        val recorder = new RecordingStore(store)
        val cache = new PointCache(recorder)
        val full = mutable.Set.empty[Int]
        val covered = mutable.Map.empty[Int, Set[Int]].withDefaultValue(Set.empty)
        def uncovered(t: Int, oids: ObjSet) = if (full(t)) ObjSets.empty else oids.filterNot(covered(t))
        /** `f`'s result, and the store calls and batches it made. */
        def traffic[A](f: => A): (A, Seq[Call], Seq[Seq[(Int, ObjSet)]]) = {
          val (calls, batches) = (recorder.calls.length, recorder.batches.length)
          val r = f
          (r, recorder.calls.drop(calls).toSeq, recorder.batches.drop(batches).toSeq)
        }
        ops.zipWithIndex.foreach { case ((kind, reqs), i) =>
          val (t, oids) = reqs.head
          kind match {
            case 0 =>
              val (got, calls, batches) = traffic(cache.snapshot(t))
              val ctx = s"$name seed $seed op $i snapshot($t)"
              assert(got.toSeq == data.snapshot(t).toSeq, ctx)
              assert(calls == (if (full(t)) Nil else Seq(Call(t, None))) && batches.isEmpty, ctx)
              full += t
            case 1 | 2 =>
              val asked = reqs.map { case (t, oids) => (t, uncovered(t, oids)) }.filter(_._2.nonEmpty)
              val (got, calls, batches) = traffic(cache.selectMany(reqs))
              val ctx = s"$name seed $seed op $i selectMany($reqs)"
              assert(got.map(_.toSeq) == reqs.map { case (t, oids) => data.select(t, oids).toSeq }, ctx)
              assert(calls.isEmpty && batches == (if (asked.isEmpty) Nil else Seq(asked)), ctx)
              reqs.foreach { case (t, oids) => covered(t) ++= oids }
            case _ =>
              val missing = uncovered(t, oids)
              val (got, calls, batches) = traffic(cache.select(t, oids))
              val ctx = s"$name seed $seed op $i select($t, $oids)"
              assert(got.toSeq == data.select(t, oids).toSeq, ctx)
              assert(calls == (if (missing.isEmpty) Nil else Seq(Call(t, Some(missing)))) && batches.isEmpty, ctx)
              covered(t) ++= oids
          }
          val (again, calls, batches) = traffic(cache.select(t, oids))
          assert(again.toSeq == data.select(t, oids).toSeq && calls.isEmpty && batches.isEmpty, s"$name seed $seed op $i, repeated")
        }
      }
      finally opened.foreach(_._2.close())
    }
  }

  // A prefetch is a selectMany: one batched store call for a set of requests.
  test("random prefetch/select sequences: a prefetch fetches the uncovered oids in one call, and selects of them make none") {
    for (seed <- 1 to 4) {
      val rng = new Random(100 + seed)
      val data = randomData(rng)
      def someOids = ObjSets.of(oidPool.filter(_ => rng.nextInt(3) == 0))
      val ops = Vector.fill(30)(Vector.fill(1 + rng.nextInt(3))((Ts - 1 + rng.nextInt(Te - Ts + 3), someOids)))
      val opened = stores(data)
      try opened.foreach { case (name, store) =>
        val recorder = new RecordingStore(store)
        val cache = new PointCache(recorder)
        val covered = mutable.Map.empty[Int, Set[Int]].withDefaultValue(Set.empty)
        ops.zipWithIndex.foreach { case (reqs, i) =>
          val ctx = s"$name seed $seed op $i selectMany($reqs)"
          val asked = reqs.map { case (t, oids) => (t, oids.filterNot(covered(t))) }.filter(_._2.nonEmpty)
          val before = recorder.batches.length
          cache.selectMany(reqs)
          assert(recorder.batches.drop(before).toSeq == (if (asked.isEmpty) Nil else Seq(asked)), ctx)
          reqs.foreach { case (t, oids) => covered(t) ++= oids }
          reqs.foreach { case (t, oids) =>
            assert(cache.select(t, oids).toSeq == data.select(t, oids).toSeq, s"$ctx, select($t, $oids)")
          }
          assert(recorder.calls.isEmpty, ctx)
        }
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
    assert(cache.pointsRead == 3)
  }

  test("a select after a snapshot makes no store call") {
    val recorder = new RecordingStore(new MemStore(data))
    val cache = new PointCache(recorder)
    assert(cache.snapshot(0).length == 3)
    assert(cache.select(0, os(Int.MinValue, 3, 7)).toSeq == Seq(Pt(Int.MinValue, 0, 0), Pt(3, 2, 0)))
    assert(cache.snapshot(0).length == 3)
    assert(recorder.calls.toSeq == Seq(Call(0, None)))
  }

  test("a select after a selectMany makes no store call, and objects absent at t stay absent") {
    val recorder = new RecordingStore(new MemStore(data))
    val cache = new PointCache(recorder)
    val got = cache.selectMany(Seq((0, os(Int.MinValue, 3, 7)), (1, os(-5, 3, Int.MaxValue)), (5, os(1))))
    assert(got.map(_.map(_.oid).toSeq) == Seq(Seq(Int.MinValue, 3), Seq(3, Int.MaxValue), Nil))
    assert(recorder.batches.toSeq == Seq(Seq((0, os(Int.MinValue, 3, 7)), (1, os(-5, 3, Int.MaxValue)), (5, os(1)))))
    assert(cache.select(0, os(Int.MinValue, 3, 7)).toSeq == Seq(Pt(Int.MinValue, 0, 0), Pt(3, 2, 0)))
    assert(cache.select(1, os(-5, Int.MaxValue)).toSeq == Seq(Pt(Int.MaxValue, 4, 1)))
    assert(cache.select(5, os(1)).isEmpty)
    assert(recorder.calls.isEmpty)
    // Covered requests are dropped; the rest ask only for their uncovered oids.
    cache.selectMany(Seq((0, os(Int.MinValue, 7)), (1, os(-5)), (5, os(1))))
    assert(recorder.batches.length == 1)
    cache.selectMany(Seq((0, os(-5, 3)), (1, os(Int.MinValue, 3))))
    assert(recorder.batches.last == Seq((0, os(-5)), (1, os(Int.MinValue))))
    // A snapshot covers its timestamp for selectMany too.
    assert(cache.snapshot(1).length == 3)
    cache.selectMany(Seq((1, os(0, 1, 2))))
    assert(recorder.batches.length == 2)
    assert(cache.pointsRead == 4 + 2 + 3)
  }

  test("a selectMany answer out of oid order fails loudly") {
    val reversed = new RecordingStore(new MemStore(data)) {
      override def selectMany(reqs: Seq[(Int, ObjSet)]): Seq[Array[Pt]] = super.selectMany(reqs).map(_.reverse)
    }
    assertThrows[IllegalStateException](new PointCache(reversed).selectMany(Seq((1, os(-5, 3)), (0, os(Int.MinValue, -5, 3)))))
  }

  test("a store answer out of oid order fails loudly") {
    val reversed = new RecordingStore(new MemStore(data)) {
      override def select(t: Int, oids: ObjSet): Array[Pt] = super.select(t, oids).reverse
    }
    assertThrows[IllegalStateException](new PointCache(reversed).select(0, os(Int.MinValue, -5, 3)))
  }
}
