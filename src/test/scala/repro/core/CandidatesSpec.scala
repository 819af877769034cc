package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import ObjSets.ObjSet

/** Lemma 5: `KHalfHop.candidates` against the pairwise definition. */
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
}
