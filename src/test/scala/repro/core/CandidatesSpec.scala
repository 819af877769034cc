package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import ObjSets.ObjSet

/** Lemma 5: `KHalfHop.candidates` and its set join, `ObjSets.meets`,
  * against the pairwise definition.
  */
class CandidatesSpec extends AnyFunSuite {

  /** CC_i = {a ∩ b : a ∈ C_i, b ∈ C_{i+1}, |a ∩ b| ≥ m}, pair by pair. */
  private def pairwise(benchClusters: Vector[Vector[ObjSet]], m: Int): Vector[Vector[ObjSet]] =
    (0 until benchClusters.length - 1).toVector.map { i =>
      for {
        a <- benchClusters(i)
        b <- benchClusters(i + 1)
        o = ObjSets.intersect(a, b)
        if o.length >= m
      } yield o
    }

  /** Pairwise-disjoint clusters of 1 to 8 objects over a random part of
    * `universe`, so some objects are present at only one of two adjacent
    * benchmark points.
    */
  private def randomClusters(rng: Random, universe: Vector[Int]): Vector[ObjSet] = {
    val present = rng.shuffle(universe).take(rng.nextInt(universe.length + 1))
    val clusters = Vector.newBuilder[ObjSet]
    var rest = present
    while (rest.nonEmpty) {
      val size = 1 + rng.nextInt(8)
      clusters += ObjSets.of(rest.take(size))
      rest = rest.drop(size)
    }
    rng.shuffle(clusters.result())
  }

  test("no benchmark point or a single one yields no hop-windows") {
    assert(KHalfHop.candidates(Vector.empty, 2).isEmpty)
    assert(KHalfHop.candidates(Vector(Vector(ObjSets.of(Seq(1, 2, 3)))), 2).isEmpty)
  }

  test("empty cluster lists yield empty hop-windows") {
    val a = Vector(ObjSets.of(Seq(1, 2, 3)))
    assert(KHalfHop.candidates(Vector(Vector.empty, a, Vector.empty), 2) == Vector(Vector.empty, Vector.empty))
  }

  test("m equal to a cluster's size keeps the whole cluster") {
    val a = ObjSets.of(Seq(Int.MinValue, -7, 0, Int.MaxValue))
    val b = ObjSets.of(Seq(5, 6))
    val bench = Vector(Vector(a, b), Vector(ObjSets.of(Seq(6, 5)), ObjSets.of(a ++ Seq(9))))
    assert(KHalfHop.candidates(bench, 4) == Vector(Vector(a)))
    assert(KHalfHop.candidates(bench, 2) == Vector(Vector(a, b)))
  }

  test("equals the pairwise definition, order included (2000 random cluster lists)") {
    val rng = new Random(5)
    for (trial <- 1 to 2000) {
      val universe = (Seq(Int.MinValue, Int.MaxValue, -1, 0) ++ Seq.fill(30)(rng.nextInt(80) - 40)).distinct.toVector
      val bench = Vector.fill(rng.nextInt(5))(randomClusters(rng, universe))
      val sizes = bench.flatten.map(_.length)
      val m = if (sizes.nonEmpty && rng.nextBoolean()) sizes(rng.nextInt(sizes.length)) else 1 + rng.nextInt(4)
      assert(KHalfHop.candidates(bench, m) == pairwise(bench, m), s"trial $trial (m=$m): $bench")
    }
  }

  /** The join by its definition: every pair, in nested-loop order. */
  private def nested(as: Vector[ObjSet], bs: Vector[ObjSet], m: Int): Vector[(Int, Int, ObjSet)] =
    for {
      i <- as.indices.toVector
      j <- bs.indices
      o = ObjSets.intersect(as(i), bs(j))
      if o.length >= m
    } yield (i, j, o)

  test("the join equals the nested-loop definition on overlapping lists, order included (2000 trials)") {
    val rng = new Random(11)
    val universe = Vector(Int.MinValue, Int.MinValue + 1, -3, 0, 2, 5, Int.MaxValue - 1, Int.MaxValue)
    // 0 to 6 sets of random members, so either list may be empty, and its
    // sets may overlap, repeat or be empty.
    val sets = () => Vector.fill(rng.nextInt(7))(ObjSets.of(universe.filter(_ => rng.nextInt(3) > 0)))
    for (trial <- 1 to 2000) {
      val (as, bs) = (sets(), sets())
      val sizes = (as ++ bs).map(_.length).filter(_ > 0)
      val m = if (sizes.nonEmpty && rng.nextBoolean()) sizes(rng.nextInt(sizes.length)) else 1 + rng.nextInt(4)
      assert(ObjSets.meets(as, bs, m) == nested(as, bs, m), s"trial $trial (m=$m): $as x $bs")
    }
  }
}
