package repro.store

import scala.collection.mutable

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.baseline.VCoDA
import repro.core.{Convoy, KHalfHop, ObjSets, Pt}
import repro.core.ObjSets.ObjSet
import repro.data.TrajGen

/** The three storage substrates must serve byte-identical data; they differ
  * only in cost model. Also exercises k/2-hop end-to-end on each store.
  */
class StoreSpec extends AnyFunSuite {

  private def withStores(data: TrajData)(f: (String, TrajectoryStore) => Unit): Unit = {
    val stores = Seq(
      "mem" -> new MemStore(data),
      "file" -> FileStore.create(data),
      "rdbms" -> RdbmsStore.create(data),
      "lsm" -> LsmStore.create(data, flushThreshold = 512, maxRuns = 3),
    )
    try stores.foreach { case (n, s) => f(n, s) }
    finally stores.foreach(_._2.close())
  }

  private val data = TrajGen.trucksLite(scale = 0.3)

  test("bounds and totals agree across stores") {
    withStores(data) { (name, s) =>
      assert(s.ts == data.ts, name)
      assert(s.te == data.te, name)
      assert(s.totalPoints == data.totalPoints, name)
    }
  }

  test("snapshots agree across stores at every 37th timestamp") {
    val mem = new MemStore(data)
    withStores(data) { (name, s) =>
      for (t <- data.ts to data.te by 37) {
        val got = s.snapshot(t).sortBy(_.oid).toSeq
        val want = mem.snapshot(t).sortBy(_.oid).toSeq
        assert(got == want, s"$name snapshot($t)")
      }
    }
  }

  test("point selects agree across stores") {
    val mem = new MemStore(data)
    val oids = ObjSets.of(Seq(0, 3, 5, 11, 17))
    withStores(data) { (name, s) =>
      for (t <- Seq(data.ts, data.ts + 13, data.te - 1, data.te)) {
        assert(s.select(t, oids).sortBy(_.oid).toSeq == mem.select(t, oids).sortBy(_.oid).toSeq,
          s"$name select($t)")
      }
    }
  }

  /** Extreme, negative and widely spread oids; each timestamp drops some. */
  private val signed = TestData.fromTriples(for {
    t <- 0 to 3
    oid <- Seq(Int.MinValue, -70000, -5, -1, 0, 2, 64, 130, 70000, Int.MaxValue) if (oid ^ t) % 3 != 0
  } yield (t, oid, oid % 7 * 1.0, t * 1.0))

  test("snapshot and select return points in ascending oid order on every store, negative oids included") {
    def ascending(pts: Array[Pt]): Boolean = pts.iterator.map(_.oid).sliding(2).forall(w => w.length < 2 || w(0) < w(1))
    val asks = Seq(Seq(Int.MinValue, -5, 0, 64, Int.MaxValue), Seq(-70000, -1, 2, 130, 70000), Seq(-1, 0), Seq(Int.MaxValue))
    withStores(signed) { (name, s) =>
      for (t <- 0 to 3) {
        assert(ascending(s.snapshot(t)) && s.snapshot(t).length == signed.byTime(t).length, s"$name snapshot($t)")
        asks.foreach(a => assert(ascending(s.select(t, ObjSets.of(a))), s"$name select($t, $a)"))
      }
    }
  }

  test("a select of oids more than Int.MaxValue apart charges only the rows it returns") {
    withStores(signed) { (name, s) =>
      if (name != "file") for (t <- 0 to 3) {
        s.resetCounters()
        val n = s.select(t, ObjSets.of(Seq(Int.MinValue, Int.MaxValue))).length
        assert(s.pointsRead == n, s"$name select($t)")
      }
    }
  }

  test("selectMany answers as one select per request on every store, over several batches in a row") {
    val all = Seq(Int.MinValue, -70000, -5, -1, 0, 2, 64, 130, 70000, Int.MaxValue)
    val fixed = Seq(
      Seq(0 -> Seq(Int.MinValue, -5, 0, 64, Int.MaxValue), 1 -> Seq(-70000, -1, 2, 130, 70000), 2 -> Nil, 3 -> Seq(Int.MaxValue)),
      Seq(-1 -> Seq(0, 2), 4 -> Seq(-5), 3 -> all),
      Seq(1 -> Seq(-1, 0), 0 -> Seq(-1, 0)),
      Nil,
      Seq(2 -> Nil),
      Seq(Int.MinValue -> Seq(Int.MinValue), Int.MaxValue -> Seq(Int.MaxValue), 0 -> Seq(2, 12345)),
    )
    // Each batch asks for different keys than the one before: a store that
    // answered from the previous batch's keys would fail here.
    val rng = new scala.util.Random(5)
    val random = Seq.fill(12)(Seq.fill(1 + rng.nextInt(4))((rng.nextInt(6) - 1) -> all.filter(_ => rng.nextBoolean())))
    withStores(signed) { (name, s) =>
      for ((batch, i) <- (fixed ++ random).zipWithIndex) {
        val reqs = batch.map { case (t, oids) => (t, ObjSets.of(oids), t, t) }
        s.resetCounters()
        val got = s.selectMany(reqs)
        val ctx = s"$name batch $i: $reqs"
        assert(got.map { case (lo, pts) => (lo, pts.map(_.toSeq)) } == reqs.map { case (t, oids, _, _) => (t, Seq(signed.select(t, oids).toSeq)) }, ctx)
        assert(chargedRight(name, signed, reqs, got, s.pointsRead), ctx)
      }
    }
  }

  /** Whether `read` is what a `selectMany(reqs)` that answered `got` charges
    * on the store `name` over `d`. MemStore and LsmStore charge one `select`
    * per request. FileStore charges the whole file on open. DuckDB charges
    * each `(t, oid)` asked in the span of some live request (oids asked, `t`
    * inside `[ts, te]`), clipped to `[ts, te]`, once, however many key rows
    * match it.
    */
  private def chargedRight(name: String, d: TrajData, reqs: Seq[(Int, ObjSet, Int, Int)], got: Seq[(Int, Seq[Array[Pt]])], read: Long): Boolean =
    name match {
      case "file" => true
      case "rdbms" =>
        val live = reqs.collect { case (t, oids, t0, t1) if oids.nonEmpty && t >= d.ts && t <= d.te =>
          (oids, math.max(t0, d.ts).toLong to math.min(t1, d.te).toLong)
        }
        read == live.iterator.flatMap { case (oids, span) => span.iterator.flatMap(u => d.select(u.toInt, oids).iterator.map(p => (u, p.oid))) }.toSet.size
      case _ => read == got.iterator.map(_._2.map(_.length).sum).sum
    }

  /** Random datasets for the batched access paths: up to 7 timestamps, some
    * empty, starting at 0, below 0 or at either end of the `Int` range; oids
    * drawn from a pool with extremes, negatives, gaps of exactly `G` and
    * `G + 1`, and `G / 2` between 0 and `G`, so a store that read whole oid
    * ranges would read oids that no request asked for.
    */
  private val G = 64
  private val pool = Vector(Int.MinValue, Int.MinValue + G, -200, -200 + G + 1, -200 + 2 * G + 1, -1, 0, G / 2, G, 2 * G + 1,
    5000, Int.MaxValue - G - 1, Int.MaxValue)

  private val genData: Gen[TrajData] = for {
    n <- Gen.choose(1, 7)
    ts <- Gen.oneOf(0L, -3L, Int.MinValue.toLong, Int.MaxValue.toLong - n + 1)
    byTime <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(Nil), 3 -> Gen.someOf(pool)))
    coords <- Gen.listOfN(2 * n * pool.length, Gen.choose(-100.0, 100.0)).map(_.toArray)
  } yield TrajData(ts.toInt, (ts + n - 1).toInt, byTime.zipWithIndex.map { case (oids, i) =>
    oids.sorted.zipWithIndex.map { case (o, j) => val c = 2 * (i * pool.length + j); Pt(o, coords(c), coords(c + 1)) }.toArray
  }.toArray)

  /** A timestamp up to 2 outside `[ts, te]`, clamped to the `Int` range. */
  private def genT(d: TrajData): Gen[Int] =
    Gen.choose(d.ts.toLong - 2, d.te.toLong + 2).map(t => math.max(Int.MinValue, math.min(Int.MaxValue, t)).toInt)

  /** One read: `Left` a `snapshots` of repeated, unsorted and out-of-range
    * timestamps, `Right` a `selectAround(t, oids, t0, t1)`, `t0 == t1` often.
    */
  private def genOps(d: TrajData): Gen[List[Either[List[Int], (Int, ObjSet, Int, Int)]]] = {
    val snaps = Gen.listOf(genT(d)).map(Left(_))
    val around = for {
      t <- genT(d)
      oids <- Gen.someOf(pool :+ 12345)
      (a, b) <- Gen.frequency(1 -> Gen.const((0L, 0L)), 3 -> Gen.zip(Gen.choose(0L, 4L), Gen.choose(0L, 4L)))
    } yield Right((t, ObjSets.of(oids), math.max(Int.MinValue, t - a).toInt, math.min(Int.MaxValue, t + b).toInt))
    Gen.listOfN(8, Gen.frequency(1 -> snaps, 3 -> around))
  }

  /** `snapshots` and `selectAround` against `snapshot`, `select` and the data,
    * on one store; `None` if they agree, else what went wrong.
    */
  private def batchedReadsAgree(d: TrajData, s: TrajectoryStore, ops: List[Either[List[Int], (Int, ObjSet, Int, Int)]]): Option[String] =
    ops.iterator.map {
      case Left(times) =>
        val got = s.snapshots(times).map(_.toSeq)
        Option.when(got != times.map(s.snapshot(_).toSeq) || got != times.map(d.snapshot(_).toSeq))(s"snapshots($times)")
      case Right((t, oids, t0, t1)) =>
        val (lo, got) = s.selectAround(t, oids, t0, t1)
        val hi = lo.toLong + got.length - 1
        val inSpan = lo <= t && t <= hi && t0 <= lo && hi <= t1
        Option.when(!inSpan || got.indices.exists { i =>
          val u = lo + i
          got(i).toSeq != s.select(u, oids).toSeq || got(i).toSeq != d.select(u, oids).toSeq
        })(s"selectAround($t, $oids, $t0, $t1) answered [$lo, $hi]")
    }.collectFirst { case Some(e) => e }

  test("property: snapshots and selectAround answer as snapshot and select on every store, and through a PointCache") {
    val prop = Prop.forAllNoShrink(genData.flatMap(d => genOps(d).map((d, _)))) { case (d, ops) =>
      val failures = mutable.ArrayBuffer.empty[String]
      withStores(d) { (name, s) =>
        batchedReadsAgree(d, s, ops).foreach(e => failures += s"$name: $e")
        batchedReadsAgree(d, new PointCache(s), ops).foreach(e => failures += s"cache over $name: $e")
      }
      failures.isEmpty :| s"[${d.ts}, ${d.te}] ${d.byTime.map(_.map(_.oid).mkString("{", ",", "}")).mkString(" ")}: ${failures.mkString("; ")}"
    }
    val result = org.scalacheck.Test.check(org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(60), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }

  /** A `selectMany` request: as a `selectAround` of `genOps`, or with no oids. */
  private def genRequest(d: TrajData): Gen[(Int, ObjSet, Int, Int)] = for {
    t <- genT(d)
    oids <- Gen.frequency(1 -> Gen.const(Nil), 4 -> Gen.someOf(pool :+ 12345))
    (a, b) <- Gen.frequency(1 -> Gen.const((0L, 0L)), 3 -> Gen.zip(Gen.choose(0L, 4L), Gen.choose(0L, 4L)))
  } yield (t, ObjSets.of(oids), math.max(Int.MinValue, t - a).toInt, math.min(Int.MaxValue, t + b).toInt)

  /** Batches of 1 to 5 requests over a few timestamps, so their spans
    * overlap often; some batches repeat their first request at the end.
    */
  private def genBatches(d: TrajData): Gen[List[List[(Int, ObjSet, Int, Int)]]] = {
    val batch = for {
      reqs <- Gen.choose(1, 5).flatMap(Gen.listOfN(_, genRequest(d)))
      dup <- Gen.oneOf(false, true)
    } yield if (dup) reqs :+ reqs.head else reqs
    Gen.listOfN(6, batch)
  }

  /** `selectMany` of each batch against `select` and the data at every
    * timestamp of each answered span, on one store; with `charge`, also what
    * the store charged, and that DuckDB answers every live request over its
    * whole span clipped to `[ts, te]`. `None` if all hold, else what went
    * wrong.
    */
  private def spanReadsAgree(name: String, d: TrajData, s: TrajectoryStore, batches: List[List[(Int, ObjSet, Int, Int)]],
      charge: Boolean): Option[String] =
    batches.iterator.map { reqs =>
      val before = s.pointsRead
      val got = s.selectMany(reqs)
      val read = s.pointsRead - before
      val spansOk = got.length == reqs.length && reqs.lazyZip(got).forall { case ((t, oids, t0, t1), (lo, pts)) =>
        val hi = lo.toLong + pts.length - 1
        val whole = !charge || name != "rdbms" || oids.isEmpty || t < d.ts || t > d.te || (lo == math.max(t0, d.ts) && hi == math.min(t1, d.te))
        lo <= t && t <= hi && t0 <= lo && hi <= t1 && whole && pts.indices.forall { i =>
          val u = lo + i
          pts(i).toSeq == s.select(u, oids).toSeq && pts(i).toSeq == d.select(u, oids).toSeq
        }
      }
      Option.when(!spansOk || (charge && !chargedRight(name, d, reqs, got, read)))(
        s"selectMany($reqs) answered ${got.map { case (lo, pts) => s"[$lo, ${lo.toLong + pts.length - 1}]" }.mkString(", ")}, charged $read")
    }.collectFirst { case Some(e) => e }

  test("property: selectMany of span requests answers as select at every timestamp of each span, on every store and through a PointCache") {
    val prop = Prop.forAllNoShrink(genData.flatMap(d => genBatches(d).map((d, _)))) { case (d, batches) =>
      val failures = mutable.ArrayBuffer.empty[String]
      withStores(d) { (name, s) =>
        spanReadsAgree(name, d, s, batches, charge = true).foreach(e => failures += s"$name: $e")
        spanReadsAgree(name, d, new PointCache(s), batches, charge = false).foreach(e => failures += s"cache over $name: $e")
      }
      failures.isEmpty :| s"[${d.ts}, ${d.te}] ${d.byTime.map(_.map(_.oid).mkString("{", ",", "}")).mkString(" ")}: ${failures.mkString("; ")}"
    }
    val result = org.scalacheck.Test.check(org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(60), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }

  test("select outside the time range is empty") {
    withStores(data) { (name, s) =>
      assert(s.select(data.te + 10, ObjSets.of(Seq(1))).isEmpty, name)
      assert(s.snapshot(data.ts - 5).isEmpty || s.ts == data.ts - 5, name)
    }
  }

  test("select of absent oids is empty") {
    withStores(data) { (name, s) =>
      assert(s.select(data.ts, ObjSets.of(Seq(999999))).isEmpty, name)
    }
  }

  test("select of empty oid set is empty") {
    withStores(data) { (name, s) =>
      assert(s.select(data.ts, ObjSets.empty).isEmpty, name)
    }
  }

  test("FileStore round-trips through its binary format") {
    val path = java.nio.file.Files.createTempFile("roundtrip", ".bin")
    try {
      FileStore.write(data, path)
      val reopened = FileStore.open(path)
      try {
        assert(reopened.totalPoints == data.totalPoints)
        for (t <- data.ts to data.te by 53)
          assert(reopened.snapshot(t).toSeq == data.byTime(t - data.ts).toSeq)
      } finally reopened.close()
      assert(java.nio.file.Files.exists(path), "closing an opened store must keep its file")
      FileStore.create(data, path).close()
      assert(!java.nio.file.Files.exists(path), "closing a created store must remove its file")
    } finally java.nio.file.Files.deleteIfExists(path)
  }

  test("FileStore charges the full dataset on open (flat-file scan semantics)") {
    val fs = FileStore.create(data)
    try assert(fs.pointsRead == data.totalPoints)
    finally fs.close()
  }

  test("MemStore/RdbmsStore/LsmStore charge only what a query returns") {
    withStores(data) { (name, s) =>
      if (name != "file") {
        s.resetCounters()
        val n1 = s.snapshot(data.ts).length
        assert(s.pointsRead == n1, name)
        val oids = ObjSets.of(Seq(0, 1, 2))
        val n2 = s.select(data.ts + 1, oids).length
        assert(s.pointsRead == n1 + n2, name)
      }
    }
  }

  test("k/2-hop produces identical convoys on every store") {
    val p = repro.core.KHalfHop.Params(3, 30, 25.0)
    val (expected, report) = repro.core.KHalfHop.run(new MemStore(data), p)
    assert(expected.nonEmpty, "fixture should contain convoys")
    withStores(data) { (name, s) =>
      val (got, r) = repro.core.KHalfHop.run(s, p)
      assert(got == expected && r.pointsProcessed == report.pointsProcessed, name)
    }
  }

  test("k/2-hop finds the same convoy on every store with an extreme or negative oid") {
    // Timestamps from 1.2e9 (Unix seconds) and from Int.MinValue: the LSM key
    // of (Int.MinValue, Int.MinValue) is Long.MinValue.
    for (oid <- Seq(Int.MinValue, -5); t0 <- Seq(0, 1200000000, Int.MinValue)) {
      val trio = TestData.trio(oid, t0)
      val want = Vector(Convoy(ObjSets.of(Seq(oid, 1, 2)), t0, t0 + 11))
      withStores(trio) { (name, s) =>
        assert(KHalfHop.run(s, KHalfHop.Params(3, 4, 1.5))._1 == want, s"$name, oid $oid, t0 $t0")
      }
    }
  }

  test("k/2-hop and VCoDA make every store call on the thread that called them") {
    // Only the clustering of snapshots runs on the fork-join pool: DuckDB's
    // connection and PointCache's maps are not thread-safe.
    val p = KHalfHop.Params(3, 20, 25.0)
    val me = java.util.Set.of(Thread.currentThread())
    withStores(data) { (name, s) =>
      val k2 = new RecordingStore(s)
      KHalfHop.run(k2, p)
      assert(k2.snapshotBatches.nonEmpty && k2.threads == me, s"k/2-hop on $name: ${k2.threads}")
      val vcoda = new RecordingStore(s)
      VCoDA.run(vcoda, p, indexed = true)
      assert(vcoda.calls.nonEmpty && vcoda.threads == me, s"VCoDA on $name: ${vcoda.threads}")
    }
  }

  test("TrajData rejects duplicate or unsorted (t, oid) rows") {
    assertThrows[IllegalArgumentException](TrajData(0, 0, Array(Array(Pt(1, 0, 0), Pt(1, 0, 0), Pt(2, 1, 0)))))
    assertThrows[IllegalArgumentException](TrajData(0, 0, Array(Array(Pt(2, 0, 0), Pt(1, 0, 0)))))
    assertThrows[IllegalArgumentException](TestData.fromTriples(Seq((0, 1, 0.0, 0.0), (0, 1, 0.0, 0.0))))
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      assertThrows[IllegalArgumentException](TrajData(0, 0, Array(Array(Pt(1, 0, 0), Pt(2, bad, 0)))))
      assertThrows[IllegalArgumentException](TrajData(0, 0, Array(Array(Pt(1, 0, bad)))))
      assertThrows[IllegalArgumentException](TestData.fromTriples(Seq((0, 1, 0.0, 0.0), (1, 2, bad, bad))))
    }
  }

  test("TrajData.fromPoints restores contiguous timestamps and sorts by oid") {
    val td = TestData.fromTriples(Seq((5, 3, 1.0, 1.0), (3, 1, 0.0, 0.0), (5, 1, 2.0, 2.0)))
    assert(td.ts == 3 && td.te == 5)
    assert(td.byTime(0).map(_.oid).toSeq == Seq(1))
    assert(td.byTime(1).isEmpty)
    assert(td.byTime(2).map(_.oid).toSeq == Seq(1, 3))
  }

  test("TestData.restrictTo keeps only the given objects") {
    val r = TestData.restrictTo(data, ObjSets.of(Seq(0, 1)))
    assert(r.iterator.forall { case (_, p) => p.oid == 0 || p.oid == 1 })
    assert(r.ts == data.ts && r.te == data.te)
  }
}
