package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.store.MemStore

/** Hop-Window Mining Tree: traversal orders and the paper's worked example
  * (Figure 6 / Table 2).
  */
class HWMTSpec extends AnyFunSuite {

  test("treeOrder of [1,7] matches Figure 4 / Table 2: 4, 2, 6, 1, 3, 5, 7") {
    assert(HWMT.treeOrder(1, 7) == Vector(4, 2, 6, 1, 3, 5, 7))
  }

  test("treeOrder of empty range") {
    assert(HWMT.treeOrder(3, 2).isEmpty)
  }

  test("treeOrder of singleton") {
    assert(HWMT.treeOrder(5, 5) == Vector(5))
  }

  test("treeOrder covers every timestamp exactly once") {
    for ((lo, hi) <- Seq((0, 0), (1, 2), (0, 10), (5, 20), (-3, 3))) {
      val order = HWMT.treeOrder(lo, hi)
      assert(order.sorted == (lo to hi).toVector, s"[$lo,$hi]")
    }
    // Near both ends of Int and past 1.07e9, where `lo + hi` wraps.
    for (base <- Seq(1200000000, Int.MaxValue - 10, Int.MinValue); (lo, hi) <- Seq((0, 0), (1, 2), (0, 10), (4, 8))) {
      val order = HWMT.treeOrder(base + lo, base + hi)
      assert(order == HWMT.treeOrder(lo, hi).map(_ + base), s"[$base+$lo,$base+$hi]")
    }
  }

  test("treeOrder is level-ordered: parents before children") {
    // For [1,15] the perfect tree levels are 8 | 4,12 | 2,6,10,14 | odds.
    assert(HWMT.treeOrder(1, 15) == Vector(8, 4, 12, 2, 6, 10, 14, 1, 3, 5, 7, 9, 11, 13, 15))
  }

  test("treeLevels splits treeOrder by tree depth") {
    assert(HWMT.treeLevels(1, 15) == Vector(Vector(8), Vector(4, 12), Vector(2, 6, 10, 14), Vector(1, 3, 5, 7, 9, 11, 13, 15)))
    assert(HWMT.treeLevels(3, 2).isEmpty)
    // The interior of a k=20 hop-window has 4 levels, of a k=40 one 5.
    assert(HWMT.treeLevels(1, 9).length == 4 && HWMT.treeLevels(1, 19).length == 5)
    for (base <- Seq(0, -3, 1200000000, Int.MaxValue - 10, Int.MinValue); (lo, hi) <- Seq((0, 0), (1, 2), (0, 10), (4, 8))) {
      val levels = HWMT.treeLevels(base + lo, base + hi)
      assert(levels.flatten == HWMT.treeOrder(base + lo, base + hi), s"[$base+$lo,$base+$hi]")
      assert(levels.flatten.sorted == (base + lo to base + hi).toVector, s"[$base+$lo,$base+$hi]")
      assert(levels.zipWithIndex.forall { case (l, d) => l.nonEmpty && l.length <= (1 << d) }, s"[$base+$lo,$base+$hi]")
    }
  }

  test("starOrder probes extremes first") {
    val o = HWMT.starOrder(1, 6)
    assert(o.take(2) == Vector(1, 6))
    assert(o.sorted == (1 to 6).toVector)
  }

  test("starOrder of single timestamp") {
    assert(HWMT.starOrder(4, 4) == Vector(4))
  }

  test("starOrder of two timestamps") {
    assert(HWMT.starOrder(4, 5) == Vector(4, 5))
  }

  /** The Figure 6 / Table 2 scenario: benchmark points b0 = 0 and b1 = 8.
    * At t=0 clusters are {a..j}, {x,y,z}, {m,n,o}; at t=8 clusters are
    * {a,b,c,d} and {x,y,z}. CC = {{a,b,c,d},{x,y,z}} (m=3). Objects
    * a,b,c,d stay together at every interior timestamp; x,y,z scatter at
    * t=4. HWMT must return exactly the spanning convoy {a,b,c,d}[0,8].
    *
    * Object ids: a..j = 0..9, x,y,z = 20,21,22, m,n,o = 30,31,32.
    */
  private def figure6Data = {
    val triples = Seq.newBuilder[(Int, Int, Double, Double)]
    // t = 0: everything together in three groups.
    triples ++= TestData.line(0, (0 to 9).map(o => o -> o.toDouble): _*)
    triples ++= TestData.line(0, 20 -> 50.0, 21 -> 51.0, 22 -> 52.0)
    triples ++= TestData.line(0, 30 -> 80.0, 31 -> 81.0, 32 -> 82.0)
    for (t <- 1 to 7) {
      // a,b,c,d always together; e..j scattered far apart.
      triples ++= TestData.line(t, 0 -> 0.0, 1 -> 1.0, 2 -> 2.0, 3 -> 3.0)
      triples ++= TestData.line(t, (4 to 9).map(o => o -> (100.0 + 20.0 * o + 3 * t)): _*)
      if (t == 4) {
        // x,y,z scattered exactly at the HWMT root timestamp.
        triples ++= TestData.line(t, 20 -> 300.0, 21 -> 320.0, 22 -> 340.0)
      } else {
        triples ++= TestData.line(t, 20 -> 50.0, 21 -> 51.0, 22 -> 52.0)
      }
      // m,n,o drift apart after t=0.
      triples ++= TestData.line(t, 30 -> (400.0 + 30 * t), 31 -> (500.0 + 30 * t), 32 -> (600.0 + 30 * t))
    }
    // t = 8: benchmark point with {a,b,c,d} and {x,y,z}.
    triples ++= TestData.line(8, 0 -> 0.0, 1 -> 1.0, 2 -> 2.0, 3 -> 3.0)
    triples ++= TestData.line(8, (4 to 9).map(o => o -> (100.0 + 20.0 * o)): _*)
    triples ++= TestData.line(8, 20 -> 50.0, 21 -> 51.0, 22 -> 52.0)
    triples ++= TestData.line(8, 30 -> 400.0, 31 -> 500.0, 32 -> 600.0)
    TestData.fromTriples(triples.result())
  }

  test("Figure 6 / Table 2: benchmark clusters and candidate clusters") {
    val data = figure6Data
    val eps = 1.5; val m = 3
    val c0 = DBSCAN.cluster(data.byTime(0), eps, m)
    val c8 = DBSCAN.cluster(data.byTime(8), eps, m)
    assert(c0.toSet == Set(ObjSets.of(0 to 9), ObjSets.of(Seq(20, 21, 22)), ObjSets.of(Seq(30, 31, 32))))
    assert(c8.toSet == Set(ObjSets.of(Seq(0, 1, 2, 3)), ObjSets.of(Seq(20, 21, 22))))
    val cc = for (a <- c0; b <- c8; o = ObjSets.intersect(a, b) if o.length >= m) yield o
    assert(cc.toSet == Set(ObjSets.of(Seq(0, 1, 2, 3)), ObjSets.of(Seq(20, 21, 22))))
  }

  test("Figure 6 / Table 2: HWMT mines exactly the spanning convoy {a,b,c,d}[0,8]") {
    val data = figure6Data
    val store = new MemStore(data)
    val counter = new PointCounter
    val cc = Vector(ObjSets.of(Seq(0, 1, 2, 3)), ObjSets.of(Seq(20, 21, 22)))
    val res = HWMT.mineWindow((t, o) => store.select(t, o), 0, 8, cc, 1.5, 3, counter)
    assert(res == Vector(Convoy(ObjSets.of(Seq(0, 1, 2, 3)), 0, 8)))
  }

  test("HWMT aborts window as soon as all candidates die (root kills everything)") {
    // Candidate together at benchmarks but scattered at the root timestamp.
    val triples = Seq.newBuilder[(Int, Int, Double, Double)]
    for (t <- 0 to 8) {
      if (t == 4) triples ++= TestData.line(t, 0 -> 0.0, 1 -> 100.0, 2 -> 200.0)
      else triples ++= TestData.line(t, 0 -> 0.0, 1 -> 1.0, 2 -> 2.0)
    }
    val store = new MemStore(TestData.fromTriples(triples.result()))
    val counter = new PointCounter
    val res = HWMT.mineWindow((t, o) => store.select(t, o), 0, 8, Vector(ObjSets.of(Seq(0, 1, 2))), 1.5, 3, counter)
    assert(res.isEmpty)
    // Only the root timestamp was probed: 3 points read, not 7 timestamps worth.
    assert(counter.n == 3, s"expected early abort after root probe, read ${counter.n}")
  }

  test("HWMT window with no interior timestamps returns candidates as spanning convoys") {
    val store = new MemStore(TestData.fromTriples(
      TestData.line(0, 0 -> 0.0, 1 -> 1.0) ++ TestData.line(1, 0 -> 0.0, 1 -> 1.0)))
    val counter = new PointCounter
    val cc = Vector(ObjSets.of(Seq(0, 1)))
    val res = HWMT.mineWindow((t, o) => store.select(t, o), 0, 1, cc, 1.5, 2, counter)
    assert(res == Vector(Convoy(ObjSets.of(Seq(0, 1)), 0, 1)))
    assert(counter.n == 0)
  }

  test("HWMT candidate splitting: a candidate that splits mid-window yields both halves") {
    // {0,1,2,3} together at benchmarks; at interior timestamps split into
    // {0,1} and {2,3} (m=2).
    val triples = Seq.newBuilder[(Int, Int, Double, Double)]
    for (t <- 0 to 8) {
      if (t == 0 || t == 8) triples ++= TestData.line(t, 0 -> 0.0, 1 -> 1.0, 2 -> 2.0, 3 -> 3.0)
      else triples ++= TestData.line(t, 0 -> 0.0, 1 -> 1.0, 2 -> 50.0, 3 -> 51.0)
    }
    val store = new MemStore(TestData.fromTriples(triples.result()))
    val counter = new PointCounter
    val res = HWMT.mineWindow((t, o) => store.select(t, o), 0, 8, Vector(ObjSets.of(Seq(0, 1, 2, 3))), 1.5, 2, counter)
    assert(res.toSet == Set(Convoy(ObjSets.of(Seq(0, 1)), 0, 8), Convoy(ObjSets.of(Seq(2, 3)), 0, 8)))
  }

  /** Algorithm 2 for one hop-window, written out over `treeOrder`: the
    * reference that `mineWindows` (and `mineWindow`, its one-window case)
    * must match.
    */
  private def perWindow(select: (Int, ObjSets.ObjSet) => Array[Pt], b1: Int, b2: Int, cc: Vector[ObjSets.ObjSet],
                        eps: Double, m: Int, counter: PointCounter): Vector[Convoy] = {
    var cands = cc
    val order = HWMT.treeOrder(b1 + 1, b2 - 1).iterator
    while (order.hasNext && cands.nonEmpty) cands = HWMT.reclusterAll(select, order.next(), cands, eps, m, counter).flatten
    cands.map(o => Convoy(o, b1, b2))
  }

  test("mineWindows mines the same spanning convoys and points as one tree-order pass per hop-window") {
    for (seed <- 1L to 12L; k <- Seq(2, 3, 6, 9, 16)) {
      val data = TestData.randomTiny(seed, 10, 40)
      val store = new MemStore(data)
      val p = KHalfHop.Params(2, k, TestData.GridEps)
      val bps = KHalfHop.benchmarkPoints(data.ts, data.te, k)
      val cc = KHalfHop.candidates(bps.map(b => DBSCAN.cluster(data.snapshot(b), p.eps, p.m)), p.m)
      val (all, single, each) = (new PointCounter, new PointCounter, new PointCounter)
      val batches = Vector.newBuilder[Seq[(Int, ObjSets.ObjSet)]]
      val got = HWMT.mineWindows(reqs => { batches += reqs; store.selectMany(reqs) }, bps, cc, p.eps, p.m, all)
      val want = cc.indices.toVector.map(i => perWindow(store.select, bps(i), bps(i + 1), cc(i), p.eps, p.m, each))
      val alone = cc.indices.toVector.map(i => HWMT.mineWindow(store.select, bps(i), bps(i + 1), cc(i), p.eps, p.m, single))
      assert(got == want && alone == want, s"seed $seed, k $k")
      assert(all.n == each.n && single.n == each.n, s"seed $seed, k $k")
      assert(batches.result().length <= HWMT.treeLevels(1, k / 2 - 1).length, s"seed $seed, k $k")
    }
    // No benchmark point (an empty dataset), or one: no hop-window.
    for (bps <- Seq(Vector.empty[Int], Vector(7)))
      assert(HWMT.mineWindows(_ => fail("selectMany"), bps, Vector.empty, 1.5, 2, new PointCounter).isEmpty)
  }

  test("reclusterAll partitions a batched read back to its owning candidates") {
    val store = new MemStore(TestData.fromTriples(
      TestData.line(0, 0 -> 0.0, 1 -> 1.0, 5 -> 30.0, 6 -> 31.0, 9 -> 60.0)))
    val counter = new PointCounter
    val cands = Vector(ObjSets.of(Seq(0, 1)), ObjSets.of(Seq(5, 6, 9)))
    val res = HWMT.reclusterAll((t, o) => store.select(t, o), 0, cands, 1.5, 2, counter)
    assert(res == Vector(Vector(ObjSets.of(Seq(0, 1))), Vector(ObjSets.of(Seq(5, 6)))))
    assert(counter.n == 5)
  }

  test("reclusterAll with one candidate reads and clusters only its objects") {
    val store = new MemStore(TestData.fromTriples(
      TestData.line(0, 0 -> 0.0, 1 -> 1.0, 2 -> 2.0, 4 -> 3.0, 7 -> 50.0)))
    val counter = new PointCounter
    val res = HWMT.reclusterAll((t, o) => store.select(t, o), 0, Vector(ObjSets.of(Seq(0, 1, 2, 7))), 1.5, 2, counter)
    assert(res == Vector(Vector(ObjSets.of(Seq(0, 1, 2)))))
    assert(counter.n == 4)
  }

  test("reclusterAll gives no clusters to a candidate whose objects are all absent at t") {
    val store = new MemStore(TestData.fromTriples(
      TestData.line(0, 0 -> 0.0, 1 -> 1.0) ++ TestData.line(1, 0 -> 0.0, 1 -> 1.0, 5 -> 5.0, 6 -> 6.0)))
    val counter = new PointCounter
    val cands = Vector(ObjSets.of(Seq(0, 1)), ObjSets.of(Seq(5, 6)))
    val res = HWMT.reclusterAll((t, o) => store.select(t, o), 0, cands, 1.5, 2, counter)
    assert(res == Vector(Vector(ObjSets.of(Seq(0, 1))), Vector.empty))
    assert(counter.n == 2)
  }

  test("reclusterAll partitions negative and extreme oids to their candidates") {
    val store = new MemStore(TestData.fromTriples(
      TestData.line(0, Int.MinValue -> 0.0, -5 -> 1.0, -3 -> 30.0, -2 -> 10.0, 3 -> 11.0, Int.MaxValue -> 12.0)))
    val counter = new PointCounter
    val cands = Vector(ObjSets.of(Seq(Int.MinValue, -5)), ObjSets.of(Seq(-2, 3, Int.MaxValue)))
    val res = HWMT.reclusterAll((t, o) => store.select(t, o), 0, cands, 1.5, 2, counter)
    assert(res == Vector(Vector(ObjSets.of(Seq(Int.MinValue, -5))), Vector(ObjSets.of(Seq(-2, 3, Int.MaxValue)))))
    assert(counter.n == 5)
  }
}
