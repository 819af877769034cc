package repro.store

import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.core.{Convoy, KHalfHop, ObjSets, Pt}
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
        val reqs = batch.map { case (t, oids) => (t, ObjSets.of(oids)) }
        s.resetCounters()
        val got = s.selectMany(reqs)
        val ctx = s"$name batch $i: $reqs"
        assert(got.map(_.toSeq) == reqs.map { case (t, oids) => signed.select(t, oids).toSeq }, ctx)
        if (name != "file") assert(s.pointsRead == got.map(_.length).sum, ctx)
      }
    }
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
    val expected = repro.core.KHalfHop.run(new MemStore(data), p)._1
    assert(expected.nonEmpty, "fixture should contain convoys")
    withStores(data) { (name, s) =>
      val (got, _) = repro.core.KHalfHop.run(s, p)
      assert(got == expected, name)
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

  test("TrajData.restrictTo keeps only the given objects") {
    val r = data.restrictTo(ObjSets.of(Seq(0, 1)))
    assert(r.iterator.forall { case (_, p) => p.oid == 0 || p.oid == 1 })
    assert(r.ts == data.ts && r.te == data.te)
  }
}
