package repro.core

import scala.collection.mutable

import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.{MemStore, PointCache, RdbmsStore, RecordingStore}

/** Parameter validation, run report and pruning invariants of the k/2-hop
  * driver (the quantities behind Tables 5 and Figures 8i/8j).
  */
class KHalfHopStatsSpec extends AnyFunSuite {

  test("Params rejects invalid values") {
    assertThrows[IllegalArgumentException](Params(1, 4, 1.0))  // m < 2
    assertThrows[IllegalArgumentException](Params(2, 1, 1.0))  // k < 2
    assertThrows[IllegalArgumentException](Params(2, 4, 0.0))  // eps <= 0
    assertThrows[IllegalArgumentException](Params(2, 4, -1.0))
    Params(2, 2, 0.1) // minimal legal values
  }

  test("benchmark point count matches ceil((Te-Ts)/floor(k/2)) + 1") {
    val data = TestData.randomTiny(1, 6, 41) // Ts=0, Te=40
    for (k <- Seq(2, 4, 6, 10, 20)) {
      val recorder = new RecordingStore(new MemStore(data))
      KHalfHop.run(recorder, Params(2, k, TestData.GridEps))
      val h = k / 2
      assert(recorder.calls.count(_.oids.isEmpty) == (40 / h) + 1, s"k=$k")
    }
  }

  test("pointsProcessed <= totalPoints * small factor and decreases as k grows") {
    val data = TrajGen.tdriveLite(scale = 0.3)
    val processed = Seq(10, 40, 100).map { k =>
      KHalfHop.run(new MemStore(data), Params(3, k, 25.0))._2.pointsProcessed
    }
    assert(processed(1) < processed(0), s"processed=$processed")
    assert(processed(2) < processed(1), s"processed=$processed")
  }

  test("pruning percentage is consistent with counts") {
    val data = TrajGen.trucksLite(scale = 0.5)
    val (_, report) = KHalfHop.run(new MemStore(data), Params(3, 40, 25.0))
    assert(report.pointsProcessed < data.totalPoints / 2, s"processed ${report.pointsProcessed} of ${data.totalPoints}")
  }

  test("pipeline cardinalities are coherent") {
    val data = TrajGen.trucksLite(scale = 0.5)
    val (convoys, report) = KHalfHop.run(new MemStore(data), Params(3, 40, 25.0))
    val (bench, merge) = (report("bench").out, report("merge").out)
    assert(report.convoys == convoys.length)
    assert(report.preValidationConvoys == report("extL").out && report.preValidationConvoys >= 0)
    assert(merge <= report.spanningConvoys || report.spanningConvoys == 0 ||
      merge <= report.spanningConvoys + report.candidateClusters)
    assert(report.candidateClusters <= bench * bench)
  }

  test("phase timings cover the pipeline") {
    val data = TrajGen.trucksLite(scale = 0.5)
    val (_, report) = KHalfHop.run(new MemStore(data), Params(3, 40, 25.0))
    assert(report.phases.map(_.name) == Vector("bench", "cc", "hwmt", "merge", "extR", "extL", "val"))
    assert(report.phases.forall(_.us >= 0))
    assert(report.totalUs == report.phases.map(_.us).sum)
  }

  test("store read counter sees at least the benchmark snapshots") {
    val data = TrajGen.trucksLite(scale = 0.3)
    val p = Params(3, 40, 25.0)
    val store = new MemStore(data)
    val recorder = new RecordingStore(store)
    val (_, report) = KHalfHop.run(recorder, p)
    assert(store.pointsRead == recorder.returned.length, "MemStore counts exactly the points the run fetched")
    val snapshotPoints =
      KHalfHop.benchmarkPoints(data.ts, data.te, p.k).map(b => data.byTime(b - data.ts).length.toLong).sum
    assert(snapshotPoints <= store.pointsRead, s"$snapshotPoints benchmark points, ${store.pointsRead} read")
    assert(store.pointsRead <= report.pointsProcessed, s"${store.pointsRead} read, ${report.pointsProcessed} processed")
    val twice = recorder.returned.groupBy(identity).collect { case (tOid, n) if n.length > 1 => tOid }
    assert(twice.isEmpty, s"(t, oid) returned more than once in one run: ${twice.take(5)}")
  }

  test("validation re-clusters only points that the stages before it already read") {
    val cases = (TrajGen.trucksLite(scale = 0.3), Params(3, 40, 25.0)) +:
      (for (seed <- 1L to 20L; p <- Seq(Params(2, 4, TestData.GridEps), Params(3, 3, TestData.GridEps)))
        yield (TestData.randomTiny(seed, 8, 30), p))
    for ((data, p) <- cases) {
      val recorder = new RecordingStore(new MemStore(data))
      val cache = new PointCache(recorder)
      val counter = new PointCounter
      val bps = KHalfHop.benchmarkPoints(data.ts, data.te, p.k)
      val cc = KHalfHop.candidates(bps.map(b => DBSCAN.cluster(cache.snapshot(b), p.eps, p.m)), p.m)
      val spanning = HWMT.mineWindows(cache.selectMany, bps, cc, p.eps, p.m, counter)
      val acc = mutable.ArrayBuffer.empty[Convoy]
      Merge.mergeSpanning(spanning, p.m).foreach(v =>
        Extend.extendOne(cache.select, v, data.te, forward = true, p.eps, p.m, counter, acc))
      val rightClosed = acc.toVector
      acc.clear()
      rightClosed.foreach(v => Extend.extendOne(cache.select, v, data.ts, forward = false, p.eps, p.m, counter, acc))
      // The cache's select reaches the store as a selectMany: no call of either kind may follow.
      val reads = () => (recorder.calls.length, recorder.batches.length)
      val before = reads()
      Validate.fullyConnected(ConvoySets.maximal(acc.filter(_.len >= p.k)), cache.select, p.eps, p.m, p.k, counter)
      assert(reads() == before, s"validation read the store for $p")
    }
  }

  test("HWMT reads each tree level in one batched store call, with no per-window select") {
    val cases = Seq(20, 40).map(k => (TrajGen.trucksLite(scale = 0.3), Params(3, k, 25.0))) ++
      (for (seed <- 1L to 10L; p <- Seq(Params(2, 8, TestData.GridEps), Params(2, 3, TestData.GridEps)))
        yield (TestData.randomTiny(seed, 8, 30), p))
    for ((data, p) <- cases) {
      val levels = HWMT.treeLevels(1, p.k / 2 - 1).length
      // The HWMT phase alone, on the run's cache after its benchmark snapshots.
      val recorder = new RecordingStore(new MemStore(data))
      val cache = new PointCache(recorder)
      val bps = KHalfHop.benchmarkPoints(data.ts, data.te, p.k)
      val cc = KHalfHop.candidates(bps.map(b => DBSCAN.cluster(cache.snapshot(b), p.eps, p.m)), p.m)
      val snapshots = recorder.calls.length
      val spanning = HWMT.mineWindows(cache.selectMany, bps, cc, p.eps, p.m, new PointCounter)
      assert(recorder.calls.length == snapshots, s"HWMT made a per-window select for $p")
      assert(recorder.batches.length <= levels, s"${recorder.batches.length} batched calls for $levels levels, $p")
      val hwmtBatches = recorder.batches.toSeq
      cache.selectMany(TestData.readAhead(data, p.k, Merge.mergeSpanning(spanning, p.m)))
      val ahead = recorder.batches.toSeq.drop(hwmtBatches.length)
      assert(ahead.length <= 1, s"$p")
      // The whole run issues exactly those batches, then the one read-ahead
      // batch, then extension's and validation's one-request reads, and finds
      // the same spanning convoys.
      val runRecorder = new RecordingStore(new MemStore(data))
      val (_, report) = KHalfHop.run(runRecorder, p)
      val (hwmt, rest) = runRecorder.batches.toSeq.splitAt(hwmtBatches.length)
      assert(hwmt == hwmtBatches && rest.take(ahead.length) == ahead && rest.drop(ahead.length).forall(_.length == 1), s"$p")
      assert(report.spanningConvoys == spanning.iterator.map(_.length).sum, s"$p")
    }
  }

  test("the read-ahead batch asks for each maximal spanning convoy's first step past each end, clipped to [ts, te]") {
    // Two trios together over [4, 13] and apart elsewhere: their convoys
    // start and end at the same timestamps, so they share both requests.
    val twin = TestData.fromTriples((0 to 20).flatMap { t =>
      val gap = if (t >= 4 && t <= 13) 1.0 else 3.0
      TestData.line(t, 0 -> 0.0, 1 -> gap, 2 -> 2 * gap, 5 -> 10 * gap, 6 -> 11 * gap, 7 -> 12 * gap)
    })
    assert(TestData.readAhead(twin, 4, TestData.replayToExtension(twin, new MemStore(twin), Params(3, 4, 1.5))._1) ==
      Seq((3, ObjSets.of(Seq(0, 1, 2, 5, 6, 7)), 3, 3), (13, ObjSets.of(Seq(0, 1, 2, 5, 6, 7)), 13, 13)))
    val cases = Seq((twin, Params(3, 4, 1.5))) ++ Seq(20, 40).map(k => (TrajGen.trucksLite(scale = 0.3), Params(3, k, 25.0))) ++
      (for (seed <- 1L to 10L; k <- Seq(2, 3, 4, 8)) yield (TestData.randomTiny(seed, 8, 30), Params(2, k, TestData.GridEps)))
    var (clipped, batches) = (0, 0)
    for ((data, p) <- cases) {
      val (vm, hwmt, _) = TestData.replayToExtension(data, new MemStore(data), p)
      // MemStore answers each HWMT request at its `t` alone, and every
      // benchmark point is a snapshot: the cache drops what those covered.
      val asked = hwmt.flatten.groupMapReduce(_.t)(_.oids)(ObjSets.union)
      val bps = KHalfHop.benchmarkPoints(data.ts, data.te, p.k).toSet
      val expected = TestData.readAhead(data, p.k, vm).filterNot(r => bps(r._1)).map { case (t, objs, t0, t1) =>
        (t, objs.filterNot(o => asked.get(t).exists(ObjSets.contains(_, o))), t0, t1)
      }.filter(_._2.nonEmpty)
      if (vm.exists(v => v.ts == data.ts || v.te == data.te)) clipped += 1
      val recorder = new RecordingStore(new MemStore(data))
      val (_, report) = KHalfHop.run(recorder, p)
      assert(report("merge").out == vm.length, s"$p")
      val rest = recorder.batches.toSeq.drop(hwmt.length)
      if (expected.nonEmpty) {
        batches += 1
        assert(rest.head.map(a => (a.t, a.oids, a.t0, a.t1)) == expected && rest.head.forall(a => a.lo == a.t && a.n == 1), s"$p")
      }
      if (p.k / 2 == 1) assert(expected.isEmpty, s"$p: a read-ahead request at hop 1 reached the store")
    }
    assert(clipped > 0 && batches > 2, s"$clipped runs with a convoy at ts or te, $batches read-ahead batches")
  }

  test("on DuckDB, HWMT reads every hop-window's interior in one store call, and makes none at k = 2 or 3") {
    val cases = Seq(20, 40).map(k => (TrajGen.trucksLite(scale = 0.3), Params(3, k, 25.0))) ++
      (for (seed <- 1L to 6L; k <- Seq(2, 3, 4, 8)) yield (TestData.randomTiny(seed, 8, 30), Params(2, k, TestData.GridEps)))
    var windows = 0
    for ((data, p) <- cases) {
      val store = RdbmsStore.create(data)
      try {
        val recorder = new RecordingStore(store)
        val cache = new PointCache(recorder)
        val bps = KHalfHop.benchmarkPoints(data.ts, data.te, p.k)
        val cc = KHalfHop.candidates(cache.snapshots(bps).map(DBSCAN.cluster(_, p.eps, p.m)).toVector, p.m)
        val calls = recorder.calls.length
        val spanning = HWMT.mineWindows(cache.selectMany, bps, cc, p.eps, p.m, new PointCounter)
        val live = p.k / 2 >= 2 && cc.exists(_.nonEmpty)
        assert(recorder.calls.length == calls && recorder.batches.length == (if (live) 1 else 0), s"${recorder.batches.length} calls for $p")
        if (live) windows += 1
        val mem = new PointCache(new MemStore(data))
        assert(spanning == HWMT.mineWindows(mem.selectMany, bps, cc, p.eps, p.m, new PointCounter), s"$p")
      } finally store.close()
    }
    assert(windows > 2, "too few cases with candidates in a window of hop >= 2")
  }

  test("a k=20 query on T-Drive-lite x2 over DuckDB makes 3 store calls") {
    val data = TrajGen.tdriveLite(2.0, 11)
    val p = Params(3, 20, 25.0)
    val store = RdbmsStore.create(data)
    try {
      val (_, hwmt, ahead) = TestData.replayToExtension(data, store, p)
      val recorder = new RecordingStore(store)
      KHalfHop.run(recorder, p)
      // Every read of the run is one `snapshots` or one `selectMany`: the
      // benchmark snapshots, HWMT's one join, then the read-ahead's, which
      // leaves extension and validation nothing to read.
      val calls = recorder.snapshotBatches.length + recorder.batches.length
      assert(recorder.calls.length == recorder.snapshotBatches.map(_.length).sum, "a bare select or snapshot reached the store")
      assert(calls == 3, s"$calls store calls")
      assert(recorder.batches.toSeq == hwmt ++ ahead && hwmt.length == 1 && ahead.length == 1 && ahead.head.length > 1)
    } finally store.close()
  }

  test("k larger than the dataset span yields no convoys and minimal work") {
    val data = TestData.randomTiny(5, 6, 20)
    val (convoys, report) = KHalfHop.run(new MemStore(data), Params(2, 50, TestData.GridEps))
    assert(convoys.isEmpty)
    assert(report.pointsProcessed <= data.totalPoints)
  }

  test("results are independent of the store's read order (same data, two runs)") {
    val data = TestData.randomTiny(8, 8, 30)
    val p = Params(2, 4, TestData.GridEps)
    val r1 = KHalfHop.run(new MemStore(data), p)._1
    val r2 = KHalfHop.run(new MemStore(data), p)._1
    assert(r1 == r2)
  }

  test("odd and even k around the same hop width behave sanely (k=6 vs k=7, h=3)") {
    val data = TestData.randomTiny(12, 8, 40)
    val r6 = KHalfHop.run(new MemStore(data), Params(2, 6, TestData.GridEps))._1
    val r7 = KHalfHop.run(new MemStore(data), Params(2, 7, TestData.GridEps))._1
    // Every k=7 convoy has length >= 7 > 6, so each must be a sub-convoy of
    // (or equal to) some k=6 convoy.
    r7.foreach(v7 => assert(r6.exists(v7.isSubOf), s"$v7 not covered"))
  }
}
