package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable
import scala.util.Random

/** Object-set algebra and convoy maximality primitives. */
class ModelSpec extends AnyFunSuite {
  import ObjSets._

  private def os(xs: Int*): ObjSet = ObjSets.of(xs)

  test("of sorts and dedupes") {
    assert(os(3, 1, 2, 3, 1) == os(1, 2, 3))
    assert(os(3, 1, 2).toSeq == Seq(1, 2, 3))
  }

  test("of empty input") { assert(ObjSets.of(Seq.empty[Int]) == ObjSets.empty) }

  test("intersect basic") {
    assert(intersect(os(1, 2, 3, 4), os(2, 4, 6)) == os(2, 4))
    assert(intersect(os(1, 3), os(2, 4)) == ObjSets.empty)
    assert(intersect(os(), os(1)) == ObjSets.empty)
  }

  test("subsetOf basic") {
    assert(subsetOf(os(2, 4), os(1, 2, 3, 4)))
    assert(subsetOf(os(), os(1)))
    assert(subsetOf(os(1, 2), os(1, 2)))
    assert(!subsetOf(os(1, 5), os(1, 2, 3, 4)))
    assert(!subsetOf(os(1, 2, 3), os(1, 2)))
  }

  test("contains (binary search)") {
    val s = os(1, 5, 9, 13)
    assert(Seq(1, 5, 9, 13).forall(contains(s, _)))
    assert(Seq(0, 2, 8, 14).forall(!contains(s, _)))
    assert(!contains(ObjSets.empty, 1))
  }

  test("intersect/subsetOf agree with Set semantics (200 random cases)") {
    val rng = new Random(1)
    for (_ <- 1 to 200) {
      val a = List.fill(rng.nextInt(12))(rng.nextInt(20))
      val b = List.fill(rng.nextInt(12))(rng.nextInt(20))
      val (sa, sb) = (a.toSet, b.toSet)
      assert(intersect(ObjSets.of(a), ObjSets.of(b)).toSet == (sa & sb))
      assert(subsetOf(ObjSets.of(a), ObjSets.of(b)) == sa.subsetOf(sb))
    }
  }

  test("Pts.select agrees with filtering by contains (200 random cases)") {
    val rng = new Random(2)
    val pool = Array(Int.MinValue, Int.MinValue + 1, -7, -1, 0, 1, 2, 5, 9, 40, Int.MaxValue - 1, Int.MaxValue)
    def draw(): Int = if (rng.nextBoolean()) pool(rng.nextInt(pool.length)) else rng.nextInt(21) - 10
    for (_ <- 1 to 200) {
      // Strictly increasing oids, as in every TrajData timestamp.
      val pts = ObjSets.of(List.fill(rng.nextInt(12))(draw())).map(o => Pt(o, o.toDouble, -o.toDouble)).toArray
      val oids = ObjSets.of(List.fill(rng.nextInt(12))(draw()))
      assert(Pts.select(pts, oids).toSeq == pts.filter(p => ObjSets.contains(oids, p.oid)).toSeq, s"${pts.toSeq} $oids")
    }
  }

  test("union and Pts.union agree with Set semantics (200 random cases)") {
    val rng = new Random(3)
    for (_ <- 1 to 200) {
      val a = List.fill(rng.nextInt(12))(rng.nextInt(20) - 10)
      val b = List.fill(rng.nextInt(12))(rng.nextInt(20) - 10)
      assert(union(ObjSets.of(a), ObjSets.of(b)) == ObjSets.of(a ++ b), s"$a $b")
      def pts(xs: List[Int]) = ObjSets.of(xs).map(o => Pt(o, o.toDouble, -o.toDouble)).toArray
      assert(Pts.union(pts(a), pts(b)).toSeq == pts(a ++ b).toSeq, s"$a $b")
    }
  }

  test("Pts.inOidOrder returns an array already in oid order as the same instance") {
    val sorted = Array(Pt(Int.MinValue, 0, 0), Pt(-1, 1, 1), Pt(0, 2, 2), Pt(Int.MaxValue, 3, 3))
    assert(Pts.inOidOrder(sorted) eq sorted)
    val ties = Array(Pt(1, 0, 0), Pt(1, 1, 1), Pt(2, 2, 2))
    assert(Pts.inOidOrder(ties) eq ties)
  }

  test("Pts.inOidOrder sorts an unsorted array into a copy, stably, and leaves the input as it was") {
    val rng = new Random(4)
    for (_ <- 1 to 200) {
      val in = Array.fill(2 + rng.nextInt(12))(Pt(rng.nextInt(8) - 4, rng.nextDouble(), rng.nextDouble()))
      val before = in.toSeq
      val out = Pts.inOidOrder(in)
      assert(in.toSeq == before)
      assert(out.toSeq == before.sortBy(_.oid), s"$before") // `sortBy` is stable
      if (before.map(_.oid) != before.map(_.oid).sorted) assert(out ne in)
    }
    val desc = Array(Pt(Int.MaxValue, 0, 0), Pt(0, 1, 1), Pt(Int.MinValue, 2, 2))
    assert(Pts.inOidOrder(desc).map(_.oid).toSeq == Seq(Int.MinValue, 0, Int.MaxValue))
    assert(desc.map(_.oid).toSeq == Seq(Int.MaxValue, 0, Int.MinValue))
  }

  test("Pts.inOidOrder returns an empty or one-point array as the same instance") {
    val empty = Array.empty[Pt]
    val one = Array(Pt(7, 1, 2))
    assert(Pts.inOidOrder(empty) eq empty)
    assert(Pts.inOidOrder(one) eq one)
  }

  test("Pts.select on empty inputs and absent oids") {
    val pts = Array(Pt(Int.MinValue, 0, 0), Pt(-3, 1, 1), Pt(4, 2, 2), Pt(Int.MaxValue, 3, 3))
    assert(Pts.select(Array.empty[Pt], os(1, 2)).isEmpty)
    assert(Pts.select(pts, ObjSets.empty).isEmpty)
    assert(Pts.select(pts, os(-4, 0, 5, Int.MaxValue - 1)).isEmpty)
    assert(Pts.select(pts, os(Int.MinValue, Int.MaxValue)).toSeq == Seq(pts(0), pts(3)))
    assert(Pts.select(pts, os(Int.MaxValue, -3, 7)).toSeq == Seq(pts(1), pts(3)))
  }

  test("convoy len") {
    assert(Convoy(os(1, 2), 3, 7).len == 5)
    assert(Convoy(os(1, 2), 3, 3).len == 1)
  }

  test("convoy rejects reversed interval") {
    assertThrows[IllegalArgumentException](Convoy(os(1, 2), 5, 3))
  }

  test("isSubOf: both object set and lifespan must be contained") {
    val w = Convoy(os(1, 2, 3), 2, 8)
    assert(Convoy(os(1, 2), 3, 7).isSubOf(w))
    assert(Convoy(os(1, 2, 3), 2, 8).isSubOf(w)) // reflexive
    assert(!Convoy(os(1, 4), 3, 7).isSubOf(w))   // objects not contained
    assert(!Convoy(os(1, 2), 1, 7).isSubOf(w))   // starts earlier
    assert(!Convoy(os(1, 2), 3, 9).isSubOf(w))   // ends later
  }

  test("maximal removes strict sub-convoys and duplicates") {
    val a = Convoy(os(1, 2, 3), 0, 5)
    val b = Convoy(os(1, 2), 1, 4)  // strict sub of a
    val c = Convoy(os(1, 2), 0, 7)  // incomparable with a (longer interval)
    val r = ConvoySets.maximal(Seq(a, b, c, a))
    assert(r.toSet == Set(a, c))
  }

  test("maximal keeps incomparable convoys (Table 3 shape)") {
    // {a,b,c,d}[0,2] and {a,b}[0,4] are both maximal.
    val wide = Convoy(os(1, 2, 3, 4), 0, 2)
    val long = Convoy(os(1, 2), 0, 4)
    assert(ConvoySets.maximal(Seq(wide, long)).toSet == Set(wide, long))
  }

  test("update is a no-op for subsumed convoy") {
    val acc = mutable.ArrayBuffer(Convoy(os(1, 2, 3), 0, 5))
    ConvoySets.update(acc, Convoy(os(1, 2), 1, 4))
    assert(acc.toSet == Set(Convoy(os(1, 2, 3), 0, 5)))
  }

  test("update evicts subsumed entries") {
    val acc = mutable.ArrayBuffer(Convoy(os(1, 2), 1, 4), Convoy(os(9), 0, 9))
    ConvoySets.update(acc, Convoy(os(1, 2, 3), 0, 5))
    assert(acc.toSet == Set(Convoy(os(1, 2, 3), 0, 5), Convoy(os(9), 0, 9)))
  }

  test("update with equal convoy keeps one copy") {
    val v = Convoy(os(1, 2), 0, 3)
    val acc = mutable.ArrayBuffer(v)
    ConvoySets.update(acc, v)
    assert(acc.toSeq == Seq(v))
  }

  test("sorted is deterministic") {
    val vs = Seq(Convoy(os(2, 3), 1, 5), Convoy(os(1, 2), 0, 4), Convoy(os(1, 9), 0, 4))
    assert(ConvoySets.sorted(vs) == ConvoySets.sorted(vs.reverse))
  }
}
