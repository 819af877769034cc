package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.util.Random

import ObjSets.ObjSet

/** DBSCAN semantics, determinism, grid-index/naive agreement, and both
  * backends against a reference written from the definitions.
  */
class DBSCANSpec extends AnyFunSuite {

  private def pts(ps: (Int, Double, Double)*): Array[Pt] =
    ps.map { case (o, x, y) => Pt(o, x, y) }.toArray

  /** DBSCAN from its definitions, sharing no code with [[DBSCAN]]: O(n²)
    * core test, core components (union-find over core pairs within eps)
    * ordered by their smallest core oid, each border point in the earliest
    * component with a core within eps, and components left below `minPts`
    * dropped. Returns the clusters and the number of dropped components.
    */
  private def reference(input: Array[Pt], eps: Double, minPts: Int): (Vector[ObjSet], Int) = {
    val p = input.sortBy(_.oid)
    val n = p.length
    def within(i: Int, j: Int): Boolean = {
      val dx = p(j).x - p(i).x; val dy = p(j).y - p(i).y
      dx * dx + dy * dy <= eps * eps
    }
    val core = Array.tabulate(n)(i => (0 until n).count(j => within(i, j)) >= minPts)
    val parent = Array.tabulate(n)(identity)
    def root(i: Int): Int = if (parent(i) == i) i else root(parent(i))
    for (i <- 0 until n; j <- 0 until n if core(i) && core(j) && within(i, j)) {
      val (a, b) = (root(i), root(j))
      if (a != b) parent(math.max(a, b)) = math.min(a, b)
    }
    // Union by smaller index keeps each root at its component's smallest
    // core, so components in root order are in order of smallest core oid.
    val owner = Array.tabulate(n) { b =>
      if (core(b)) root(b)
      else (0 until n).filter(c => core(c) && within(c, b)).map(root).minOption.getOrElse(-1)
    }
    val members = (0 until n).filter(r => core(r) && root(r) == r).map(r => (0 until n).filter(owner(_) == r).map(p(_).oid))
    val kept = members.filter(_.length >= minPts)
    (kept.map(ArraySeq.from(_)).toVector, members.length - kept.length)
  }

  /** A random snapshot: up to 99 points (both sides of the scan cutoff) with
    * distinct oids that include the extremes, in shuffled order, on an
    * integer lattice with an integer eps (ties at exactly eps) or at random
    * real positions, the latter sometimes all in one cell; some points
    * repeat another's position, and coordinates go negative.
    */
  private def randomSnapshot(rng: Random): (Array[Pt], Double, Int) = {
    val n = rng.nextInt(100)
    val lattice = rng.nextBoolean()
    val eps = if (lattice) (1 + rng.nextInt(3)).toDouble else 0.5 + rng.nextDouble() * 2
    val span = 1 + rng.nextInt(12)
    val dense = !lattice && rng.nextInt(3) == 0 // all in one cell, a cell off the origin
    val (cx, cy) = (rng.nextInt(7) - 3, rng.nextInt(7) - 3)
    val pool = Seq(Int.MinValue, Int.MaxValue, -1, 0) ++ Seq.fill(2 * n)(if (rng.nextBoolean()) rng.nextInt() else rng.nextInt(200) - 100)
    val oids = rng.shuffle(pool.distinct).take(n)
    val ps = mutable.ArrayBuffer.empty[Pt]
    for (o <- oids) {
      val (x, y) =
        if (ps.nonEmpty && rng.nextInt(5) == 0) { val q = ps(rng.nextInt(ps.length)); (q.x, q.y) }
        else if (dense) ((cx + rng.nextDouble() * 0.9) * eps, (cy + rng.nextDouble() * 0.9) * eps)
        else if (lattice) ((rng.nextInt(2 * span + 1) - span).toDouble, (rng.nextInt(2 * span + 1) - span).toDouble)
        else (rng.nextDouble() * 2 * span - span, rng.nextDouble() * 2 * span - span)
      ps += Pt(o, x, y)
    }
    (ps.toArray, eps, 2 + rng.nextInt(6))
  }

  test("empty input yields no clusters") {
    assert(DBSCAN.cluster(Array.empty, 1.0, 2).isEmpty)
  }

  test("fewer points than minPts yields no clusters") {
    assert(DBSCAN.cluster(pts((1, 0, 0)), 1.0, 2).isEmpty)
    assert(DBSCAN.cluster(pts((1, 0, 0), (2, 0.5, 0)), 1.0, 3).isEmpty)
  }

  test("two close points, m=2: one cluster") {
    val c = DBSCAN.cluster(pts((1, 0, 0), (2, 0.8, 0)), 1.0, 2)
    assert(c == Vector(ObjSets.of(Seq(1, 2))))
  }

  test("two distant points: no clusters") {
    assert(DBSCAN.cluster(pts((1, 0, 0), (2, 5, 0)), 1.0, 2).isEmpty)
  }

  test("boundary distance exactly eps is together") {
    val c = DBSCAN.cluster(pts((1, 0, 0), (2, 1.0, 0)), 1.0, 2)
    assert(c.length == 1)
  }

  test("chain of points forms one density-connected cluster") {
    // 0 -- 0.9 -- 1.8 -- 2.7: each within eps=1 of the next only.
    val c = DBSCAN.cluster(pts((1, 0, 0), (2, 0.9, 0), (3, 1.8, 0), (4, 2.7, 0)), 1.0, 2)
    assert(c == Vector(ObjSets.of(Seq(1, 2, 3, 4))))
  }

  test("two separate groups form two clusters") {
    val c = DBSCAN.cluster(pts((1, 0, 0), (2, 0.5, 0), (5, 10, 0), (6, 10.5, 0)), 1.0, 2)
    assert(c.toSet == Set(ObjSets.of(Seq(1, 2)), ObjSets.of(Seq(5, 6))))
  }

  test("clusters ordered by smallest member oid") {
    val c = DBSCAN.cluster(pts((5, 10, 0), (6, 10.5, 0), (1, 0, 0), (2, 0.5, 0)), 1.0, 2)
    assert(c == Vector(ObjSets.of(Seq(1, 2)), ObjSets.of(Seq(5, 6))))
  }

  test("noise point far from a cluster is dropped") {
    val c = DBSCAN.cluster(pts((1, 0, 0), (2, 0.5, 0), (9, 50, 50)), 1.0, 2)
    assert(c == Vector(ObjSets.of(Seq(1, 2))))
  }

  test("minPts=3: pair of points is not dense enough") {
    assert(DBSCAN.cluster(pts((1, 0, 0), (2, 0.5, 0)), 1.0, 3).isEmpty)
  }

  test("border point joins the cluster of its core neighbor") {
    // 1,2,3 colocated (cores for m=3); 4 within eps of 3 only (border).
    val c = DBSCAN.cluster(pts((1, 0, 0), (2, 0.2, 0), (3, 0.4, 0), (4, 1.3, 0)), 1.0, 3)
    assert(c == Vector(ObjSets.of(Seq(1, 2, 3, 4))))
  }

  test("m=3: two chained pairs do not merge without a core bridge") {
    // 1-2 close, 3-4 close, gap between: no point has 3 neighbors.
    val c = DBSCAN.cluster(pts((1, 0, 0), (2, 0.5, 0), (3, 3, 0), (4, 3.5, 0)), 1.0, 3)
    assert(c.isEmpty)
  }

  test("every cluster has at least minPts members (random)") {
    val rng = new Random(7)
    for (trial <- 1 to 50) {
      val n = 5 + rng.nextInt(40)
      val ps = Array.tabulate(n)(i => Pt(i, rng.nextDouble() * 10, rng.nextDouble() * 10))
      val m = 2 + rng.nextInt(3)
      val cs = DBSCAN.cluster(ps, 1.2, m)
      assert(cs.forall(_.length >= m), s"trial $trial")
    }
  }

  test("clusters are pairwise disjoint (random)") {
    val rng = new Random(8)
    for (trial <- 1 to 50) {
      val n = 5 + rng.nextInt(40)
      val ps = Array.tabulate(n)(i => Pt(i, rng.nextDouble() * 8, rng.nextDouble() * 8))
      val cs = DBSCAN.cluster(ps, 1.0, 3)
      val all = cs.flatten
      assert(all.length == all.distinct.length, s"trial $trial")
    }
  }

  test("indexed and naive backends agree (200 random snapshots)") {
    val rng = new Random(9)
    for (trial <- 1 to 200) {
      val n = rng.nextInt(60)
      val ps = Array.tabulate(n)(i => Pt(i, rng.nextDouble() * 12, rng.nextDouble() * 12))
      val m = 2 + rng.nextInt(4)
      val eps = 0.5 + rng.nextDouble() * 1.5
      val a = DBSCAN.cluster(ps, eps, m, indexed = true)
      val b = DBSCAN.cluster(ps, eps, m, indexed = false)
      assert(a == b, s"trial $trial (n=$n, m=$m, eps=$eps)")
    }
  }

  test("determinism under input permutation") {
    val rng = new Random(10)
    for (trial <- 1 to 50) {
      val n = 10 + rng.nextInt(30)
      val ps = Array.tabulate(n)(i => Pt(i, rng.nextDouble() * 6, rng.nextDouble() * 6))
      val shuffled = rng.shuffle(ps.toList).toArray
      assert(DBSCAN.cluster(ps, 1.0, 3) == DBSCAN.cluster(shuffled, 1.0, 3), s"trial $trial")
    }
  }

  test("grid cells handle negative coordinates") {
    val c = DBSCAN.cluster(pts((1, -5.2, -3.1), (2, -5.6, -3.4), (3, 4.0, 4.0)), 1.0, 2)
    assert(c == Vector(ObjSets.of(Seq(1, 2))))
  }

  test("core point count is self-inclusive: m points all within eps cluster together") {
    // Exactly m=4 points pairwise within eps: |NH| = 4 >= 4 including self.
    val c = DBSCAN.cluster(pts((1, 0, 0), (2, 0.1, 0), (3, 0, 0.1), (4, 0.1, 0.1)), 1.0, 4)
    assert(c == Vector(ObjSets.of(Seq(1, 2, 3, 4))))
  }

  test("border point stolen by an earlier cluster drops the later one below minPts") {
    // 1-4 are cores; 10 is a border of both 4 and 20; 20 is the only core
    // of {20, 21, 22, 10}, which loses 10 to the earlier cluster and drops.
    val base = pts((1, 0, 0), (2, 0.02, 0), (3, 0.04, 0), (4, 0.12, 0), (10, 1.1, 0),
      (20, 1.1, 0.98), (21, 1.1, 1.9), (22, 1.6, 1.5))
    // Far-apart noise puts the padded input above the scan cutoff.
    val padded = base ++ Array.tabulate(60)(i => Pt(100 + i, 50.0 * (i + 1), -50.0))
    for (ps <- Seq(base, padded); indexed <- Seq(true, false)) {
      val expected = (Vector(ObjSets.of(Seq(1, 2, 3, 4, 10))), 1)
      assert(reference(ps, 1.0, 4) == expected)
      assert(DBSCAN.cluster(ps, 1.0, 4, indexed) == expected._1, s"n=${ps.length}, indexed=$indexed")
    }
  }

  test("both backends equal the reference (1000 random snapshots)") {
    val rng = new Random(11)
    var denseCells, ties, dropped = 0
    for (trial <- 1 to 1000) {
      val (ps, eps, m) = randomSnapshot(rng)
      val (expected, drops) = reference(ps, eps, m)
      for (indexed <- Seq(true, false))
        assert(DBSCAN.cluster(ps, eps, m, indexed) == expected, s"trial $trial (n=${ps.length}, m=$m, eps=$eps, indexed=$indexed)")
      val perCell = ps.groupBy(q => (math.floor(q.x / eps), math.floor(q.y / eps))).values.map(_.length)
      if (perCell.nonEmpty && perCell.max >= 24) denseCells += 1
      if (ps.exists(a => ps.exists(b => { val dx = a.x - b.x; val dy = a.y - b.y; dx * dx + dy * dy == eps * eps }))) ties += 1
      dropped += drops
    }
    // The generator reaches the cases it is meant to cover.
    assert(denseCells > 50 && ties > 200 && dropped > 0, s"dense=$denseCells ties=$ties dropped=$dropped")
  }

  test("cell coordinates beyond the Int range agree with the reference") {
    // x / eps overflows Int, so these cells saturate at Int.MinValue and
    // Int.MaxValue; 70 points keep the grid backend in use.
    val rng = new Random(12)
    val ps = Array.tabulate(70)(i => Pt(i, (if (i % 2 == 0) 1e12 else -1e12) + rng.nextDouble(), rng.nextDouble() * 3 - 1.5))
    for (indexed <- Seq(true, false)) assert(DBSCAN.cluster(ps, 1.0, 3, indexed) == reference(ps, 1.0, 3)._1)
  }
}
