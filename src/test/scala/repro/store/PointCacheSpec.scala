package repro.store

import scala.collection.mutable
import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.core.{KHalfHop, ObjSets, Pt}
import repro.core.ObjSets.ObjSet
import repro.store.RecordingStore.{Around, Call}

/** The per-run point cache answers exactly as its store does, and asks the
  * store only for what it has not read yet.
  */
class PointCacheSpec extends AnyFunSuite {

  /** Oids the datasets draw from: extremes, negatives and wide gaps. 12345
    * is never stored, so it is always absent.
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
        def traffic[A](f: => A): (A, Seq[Call], Seq[Seq[Around]]) = {
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
              val (got, calls, batches) = traffic(cache.selectMany(reqs.map { case (t, oids) => (t, oids, t, t) }))
              val ctx = s"$name seed $seed op $i selectMany($reqs)"
              assert(got.map { case (lo, pts) => (lo, pts.map(_.toSeq)) } == reqs.map { case (t, oids) => (t, Seq(data.select(t, oids).toSeq)) }, ctx)
              assert(calls.isEmpty && batches.map(_.map(a => (a.t, a.oids))) == (if (asked.isEmpty) Nil else Seq(asked)), ctx)
              reqs.foreach { case (t, oids) => covered(t) ++= oids }
            case _ =>
              val missing = uncovered(t, oids)
              val (got, calls, batches) = traffic(cache.select(t, oids))
              val ctx = s"$name seed $seed op $i select($t, $oids)"
              assert(got.toSeq == data.select(t, oids).toSeq, ctx)
              // A miss is one batch of one request, for the missing oids at `t` alone.
              assert(calls.isEmpty && batches.map(_.map(a => (a.t, a.oids, a.t0, a.t1, a.lo, a.n))) ==
                (if (missing.isEmpty) Nil else Seq(Seq((t, missing, t, t, t, 1)))), ctx)
              covered(t) ++= oids
          }
          val (again, calls, batches) = traffic(cache.select(t, oids))
          assert(again.toSeq == data.select(t, oids).toSeq && calls.isEmpty && batches.isEmpty, s"$name seed $seed op $i, repeated")
        }
      }
      finally opened.foreach(_._2.close())
    }
  }

  /** The cache's store traffic as the random-sequence tests model it: the
    * timestamps read whole, and the oids asked for per timestamp.
    */
  private final class Model(name: String) {
    val full = mutable.Set.empty[Int]
    val covered = mutable.Map.empty[Int, Set[Int]].withDefaultValue(Set.empty)
    def uncovered(t: Int, oids: ObjSet): ObjSet = if (full(t)) ObjSets.empty else oids.filterNot(covered(t))

    /** The requests the cache must send for `reqs`, as `(t, missing oids, t0,
      * t1, (lo, n))` with the span the store answers, all asked before any
      * is filed; then files each span's timestamps. DuckDB reads the span
      * clipped to [Ts, Te]; the other stores read t alone.
      */
    def ask(reqs: Seq[(Int, ObjSet, Int, Int)]): Seq[(Int, ObjSet, Int, Int, (Int, Int))] = {
      val asks = reqs.map { case (t, oids, t0, t1) => (t, uncovered(t, oids), t0, t1) }.filter(_._2.nonEmpty)
      asks.map { case (t, missing, t0, t1) =>
        val span = if (name != "rdbms" || t < Ts || t > Te) (t, 1) else (t0 max Ts, (t1 min Te) - (t0 max Ts) + 1)
        (span._1 until span._1 + span._2).foreach(u => covered(u) ++= missing)
        (t, missing, t0, t1, span)
      }
    }
  }

  /** A `selectMany` request at `t` offering up to 2 timestamps on either side. */
  private def someRequest(rng: Random, t: Int): (Int, ObjSet, Int, Int) =
    (t, ObjSets.of(oidPool.filter(_ => rng.nextInt(3) == 0)), t - rng.nextInt(3), t + rng.nextInt(3))

  // A prefetch is a selectMany: one batched store call for a set of requests.
  test("random prefetch/select sequences: a prefetch fetches the uncovered oids in one call, and selects of them make none") {
    for (seed <- 1 to 4) {
      val rng = new Random(100 + seed)
      val data = randomData(rng)
      val ops = Vector.fill(30)(Vector.fill(1 + rng.nextInt(3))(someRequest(rng, Ts - 1 + rng.nextInt(Te - Ts + 3))))
      val opened = stores(data)
      try opened.foreach { case (name, store) =>
        val recorder = new RecordingStore(store)
        val cache = new PointCache(recorder)
        val model = new Model(name)
        ops.zipWithIndex.foreach { case (reqs, i) =>
          val ctx = s"$name seed $seed op $i selectMany($reqs)"
          val asked = model.ask(reqs)
          val before = recorder.batches.length
          val got = cache.selectMany(reqs)
          assert(got.map { case (lo, pts) => (lo, pts.map(_.toSeq)) } == reqs.map { case (t, oids, _, _) => (t, Seq(data.select(t, oids).toSeq)) }, ctx)
          assert(recorder.batches.drop(before).toSeq.map(_.map(a => (a.t, a.oids, a.t0, a.t1, (a.lo, a.n)))) ==
            (if (asked.isEmpty) Nil else Seq(asked)), ctx)
          reqs.foreach { case (t, oids, _, _) =>
            assert(cache.select(t, oids).toSeq == data.select(t, oids).toSeq, s"$ctx, select($t, $oids)")
          }
          assert(recorder.calls.isEmpty, ctx)
        }
      }
      finally opened.foreach(_._2.close())
    }
  }

  test("random snapshots/selectAround sequences: each miss asks the store once, for the uncovered oids, and files the span it answered") {
    for (seed <- 1 to 4) {
      val rng = new Random(200 + seed)
      val data = randomData(rng)
      def someT = Ts - 1 + rng.nextInt(Te - Ts + 3)
      // Each op is a snapshots (0) of a few timestamps, repeats and
      // out-of-range ones included, a selectAround (1, 2) over a window of up
      // to 2 timestamps on either side of t, or a selectMany (3) of up to 3
      // such requests, whose spans may overlap.
      val ops = Vector.fill(40) {
        val kind = rng.nextInt(4)
        (kind, Vector.fill(1 + rng.nextInt(3))(someT), Vector.fill(if (kind == 3) 1 + rng.nextInt(3) else 1)(someRequest(rng, someT)))
      }
      val opened = stores(data)
      try opened.foreach { case (name, store) =>
        val recorder = new RecordingStore(store)
        val cache = new PointCache(recorder)
        val model = new Model(name)
        import model.{covered, full}
        ops.zipWithIndex.foreach { case ((kind, times, reqs), i) =>
          val (calls, batches, snaps) = (recorder.calls.length, recorder.batches.length, recorder.snapshotBatches.length)
          if (kind == 0) {
            val ctx = s"$name seed $seed op $i snapshots($times)"
            val asked = times.distinct.filterNot(full)
            assert(cache.snapshots(times).map(_.toSeq) == times.map(data.snapshot(_).toSeq), ctx)
            assert(recorder.snapshotBatches.drop(snaps) == (if (asked.isEmpty) Nil else Seq(asked)), ctx)
            assert(recorder.batches.length == batches, ctx)
            full ++= times
          } else {
            val ctx = s"$name seed $seed op $i selectMany($reqs)"
            val asked = model.ask(reqs)
            val got = if (kind == 3) cache.selectMany(reqs) else { val (t, oids, t0, t1) = reqs.head; Seq(cache.selectAround(t, oids, t0, t1)) }
            assert(got.map { case (lo, pts) => (lo, pts.map(_.toSeq)) } == reqs.map { case (t, oids, _, _) => (t, Seq(data.select(t, oids).toSeq)) }, ctx)
            val made = recorder.batches.drop(batches).toSeq
            assert(made.map(_.map(a => (a.t, a.oids, a.t0, a.t1, (a.lo, a.n)))) == (if (asked.isEmpty) Nil else Seq(asked)), ctx)
            assert(recorder.snapshotBatches.length == snaps, ctx)
          }
          assert(recorder.calls.length == calls + recorder.snapshotBatches.drop(snaps).map(_.length).sum, s"$name seed $seed op $i")
          // Whatever the store answered is cached: reading it again is free.
          val (marks, batchesNow) = (recorder.calls.length, recorder.batches.length)
          for (u <- Ts - 1 to Te + 1 if full(u) || covered(u).nonEmpty) {
            val known = if (full(u)) ObjSets.of(oidPool) else ObjSets.of(covered(u))
            assert(cache.select(u, known).toSeq == data.select(u, known).toSeq, s"$name seed $seed op $i, select($u)")
            assert(cache.selectAround(u, known, u - 1, u + 1)._2.map(_.toSeq) == Seq(data.select(u, known).toSeq), s"$name seed $seed op $i, selectAround($u)")
          }
          assert(recorder.calls.length == marks && recorder.batches.length == batchesNow, s"$name seed $seed op $i, cached reads")
        }
      }
      finally opened.foreach(_._2.close())
    }
  }

  test("after one selectAround on a span store, a select anywhere in the span makes no store call") {
    val data = randomData(new Random(7))
    val store = RdbmsStore.create(data)
    try {
      val recorder = new RecordingStore(store)
      val cache = new PointCache(recorder)
      val oids = ObjSets.of(oidPool)
      assert(cache.selectAround(Ts + 3, oids, Ts, Te)._2.map(_.toSeq) == Seq(data.select(Ts + 3, oids).toSeq))
      assert(recorder.batches.toSeq.map(_.map(a => (a.lo, a.n))) == Seq(Seq((Ts, Te - Ts + 1))))
      for (t <- Ts to Te; sub <- Seq(oids, ObjSets.of(Seq(Int.MinValue, 0, 64, Int.MaxValue)), ObjSets.of(Seq(12345)))) {
        assert(cache.select(t, sub).toSeq == data.select(t, sub).toSeq, s"select($t, $sub)")
        assert(cache.selectAround(t, sub, t, Te)._2.map(_.toSeq) == Seq(data.select(t, sub).toSeq), s"selectAround($t, $sub)")
      }
      assert(recorder.calls.isEmpty && recorder.batches.length == 1)
      assert(store.pointsRead == data.totalPoints, "the span read every stored point once")
    } finally store.close()
  }

  /** `store` behind only the abstract members of `TrajectoryStore`: the
    * batched ones keep their per-timestamp defaults.
    */
  private final class Plain(store: TrajectoryStore) extends TrajectoryStore {
    override def ts: Int = store.ts
    override def te: Int = store.te
    override def totalPoints: Long = store.totalPoints
    override def snapshot(t: Int): Array[Pt] = store.snapshot(t)
    override def select(t: Int, oids: ObjSet): Array[Pt] = store.select(t, oids)
    override def pointsRead: Long = store.pointsRead
    override def resetCounters(): Unit = store.resetCounters()
  }

  test("on a store without overrides, the cache asks for exactly what snapshot and select ask for") {
    for (seed <- 1 to 4) {
      val rng = new Random(300 + seed)
      val data = randomData(rng)
      def someT = Ts - 1 + rng.nextInt(Te - Ts + 3)
      val ops = Vector.fill(60)((rng.nextInt(5), Vector.fill(1 + rng.nextInt(3))(someT), ObjSets.of(oidPool.filter(_ => rng.nextBoolean()))))
      val viaSelect = new RecordingStore(new MemStore(data))
      val viaAround = new RecordingStore(new MemStore(data))
      val (bySelect, byAround) = (new PointCache(new Plain(viaSelect)), new PointCache(new Plain(viaAround)))
      ops.foreach { case (kind, times, oids) =>
        val t = times.head
        if (kind == 0) {
          times.distinct.foreach(bySelect.snapshot)
          assert(byAround.snapshots(times).map(_.toSeq) == times.map(data.snapshot(_).toSeq))
        } else {
          bySelect.select(t, oids)
          assert(byAround.selectAround(t, oids, t - rng.nextInt(3), t + rng.nextInt(3))._2.head.toSeq == data.select(t, oids).toSeq)
        }
      }
      assert(viaAround.calls == viaSelect.calls, s"seed $seed")
      assert(viaAround.batches.isEmpty && viaAround.snapshotBatches.isEmpty, s"seed $seed")
    }
  }

  test("k/2-hop offers selectAround the interior of t's hop-window; with k = 2 or 3 (hop 1), t alone") {
    var (aheads, spans) = (0, 0)
    for (seed <- 1L to 6L; k <- Seq(2, 3, 4, 7, 10)) {
      val data = TestData.randomTiny(seed, 8, 30)
      val p = KHalfHop.Params(2, k, TestData.GridEps)
      val store = RdbmsStore.create(data)
      try {
        val (_, hwmt, ahead) = TestData.replayToExtension(data, store, p)
        store.resetCounters()
        val recorder = new RecordingStore(store)
        val ctx = s"seed $seed, k $k"
        val (convoys, report) = KHalfHop.run(recorder, p)
        assert(convoys == KHalfHop.run(new MemStore(data), p)._1, ctx)
        val h = k / 2
        // On DuckDB HWMT makes the first batch, when some window with hop >= 2
        // has candidates, and the read-ahead the next, when it asks for
        // anything; every later batch is one extension or validation read.
        assert(hwmt.length == (if (h >= 2 && report("cc").out > 0) 1 else 0), ctx)
        val (ran, reads) = recorder.batches.toSeq.splitAt(hwmt.length + ahead.length)
        assert(ran == hwmt ++ ahead && reads.forall(_.length == 1), s"$ctx: ${reads.map(_.length)}")
        (ahead ++ reads).flatten.foreach { a =>
          val b = data.ts + (a.t - data.ts) / h * h
          assert((a.t0, a.t1) == (if (b == a.t) (a.t, a.t) else (b + 1, math.min(b + h - 1, data.te))), s"$ctx: $a")
        }
        // Hop 1: every timestamp is a benchmark point, read whole by the one
        // snapshots call, so no read-ahead request reaches the store and no
        // read goes past it.
        if (h == 1) assert(ahead.isEmpty && reads.flatten.forall(a => a.lo == a.t && a.n == 1) &&
          recorder.snapshotBatches.toSeq == Seq(data.ts to data.te) && store.pointsRead == data.totalPoints, ctx)
        aheads += ahead.flatten.length
        spans += reads.length
      } finally store.close()
    }
    assert(aheads > 0 && spans > 0, s"$aheads read-ahead requests and $spans extension or validation reads reached the store")
  }

  private val data = TrajData(0, 1, Array(
    Array(Pt(Int.MinValue, 0, 0), Pt(-5, 1, 0), Pt(3, 2, 0)),
    Array(Pt(Int.MinValue, 0, 1), Pt(3, 2, 1), Pt(Int.MaxValue, 4, 1)),
  ))

  private def os(xs: Int*): ObjSet = ObjSets.of(xs)

  /** The `(t, oids)` of every request of each batch `recorder` forwarded. */
  private def asked(recorder: RecordingStore): Seq[Seq[(Int, ObjSet)]] = recorder.batches.toSeq.map(_.map(a => (a.t, a.oids)))

  test("a partly covered select asks only for the missing oids, and absent objects stay covered") {
    val recorder = new RecordingStore(new MemStore(data))
    val cache = new PointCache(recorder)
    assert(cache.select(1, os(-5, 3)).toSeq == Seq(Pt(3, 2, 1)))
    assert(cache.select(1, os(Int.MinValue, -5, 3, Int.MaxValue)).map(_.oid).toSeq == Seq(Int.MinValue, 3, Int.MaxValue))
    assert(cache.select(1, os(-5)).isEmpty)
    assert(cache.select(1, ObjSets.empty).isEmpty)
    assert(recorder.calls.isEmpty)
    assert(recorder.batches.toSeq.map(_.map(a => (a.t, a.oids, a.t0, a.t1))) ==
      Seq(Seq((1, os(-5, 3), 1, 1)), Seq((1, os(Int.MinValue, Int.MaxValue), 1, 1))))
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
    val got = cache.selectMany(Seq((0, os(Int.MinValue, 3, 7), 0, 0), (1, os(-5, 3, Int.MaxValue), 1, 1), (5, os(1), 5, 5)))
    assert(got.map { case (lo, pts) => (lo, pts.map(_.map(_.oid).toSeq)) } == Seq((0, Seq(Seq(Int.MinValue, 3))), (1, Seq(Seq(3, Int.MaxValue))), (5, Seq(Nil))))
    assert(asked(recorder) == Seq(Seq((0, os(Int.MinValue, 3, 7)), (1, os(-5, 3, Int.MaxValue)), (5, os(1)))))
    assert(cache.select(0, os(Int.MinValue, 3, 7)).toSeq == Seq(Pt(Int.MinValue, 0, 0), Pt(3, 2, 0)))
    assert(cache.select(1, os(-5, Int.MaxValue)).toSeq == Seq(Pt(Int.MaxValue, 4, 1)))
    assert(cache.select(5, os(1)).isEmpty)
    assert(recorder.calls.isEmpty)
    // Covered requests are dropped; the rest ask only for their uncovered oids.
    cache.selectMany(Seq((0, os(Int.MinValue, 7), 0, 0), (1, os(-5), 0, 1), (5, os(1), 5, 9)))
    assert(recorder.batches.length == 1)
    cache.selectMany(Seq((0, os(-5, 3), 0, 0), (1, os(Int.MinValue, 3), 1, 1)))
    assert(asked(recorder).last == Seq((0, os(-5)), (1, os(Int.MinValue))))
    // A snapshot covers its timestamp for selectMany too.
    assert(cache.snapshot(1).length == 3)
    cache.selectMany(Seq((1, os(0, 1, 2), 1, 1)))
    assert(recorder.batches.length == 2)
    assert(cache.pointsRead == 4 + 2 + 3)
  }

  test("a selectMany answer out of oid order fails loudly") {
    val reversed = new RecordingStore(new MemStore(data)) {
      override def selectMany(reqs: Seq[(Int, ObjSet, Int, Int)]): Seq[(Int, Seq[Array[Pt]])] =
        super.selectMany(reqs).map { case (lo, got) => (lo, got.map(_.reverse)) }
    }
    assertThrows[IllegalStateException](new PointCache(reversed).selectMany(Seq((1, os(-5, 3), 1, 1), (0, os(Int.MinValue, -5, 3), 0, 0))))
  }

  test("a store answer out of oid order fails loudly") {
    // A select reaches the store as a one-request selectMany.
    val reversed = new RecordingStore(new MemStore(data)) {
      override def selectMany(reqs: Seq[(Int, ObjSet, Int, Int)]): Seq[(Int, Seq[Array[Pt]])] =
        super.selectMany(reqs).map { case (lo, got) => (lo, got.map(_.reverse)) }
    }
    assertThrows[IllegalStateException](new PointCache(reversed).select(0, os(Int.MinValue, -5, 3)))
  }
}
