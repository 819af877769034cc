package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** A moving-object sample: object `oid` at position (x, y). The timestamp is
  * implicit in the query that produced the point (all algorithm steps operate
  * on one timestamp at a time).
  */
final case class Pt(oid: Int, x: Double, y: Double)

/** Lookups in point arrays sorted by strictly increasing oid (the order of
  * every `TrajData` timestamp and every store answer).
  */
object Pts {

  /** The points of `oids` in the oid-sorted `pts`, in oid order; objects
    * absent from `pts` are skipped. One binary search per oid, each starting
    * where the previous one ended.
    */
  def select(pts: Array[Pt], oids: ObjSets.ObjSet): Array[Pt] = {
    val out = new Array[Pt](math.min(pts.length, oids.length))
    var n = 0
    var lo = 0
    var i = 0
    while (i < oids.length && lo < pts.length) {
      val oid = oids(i)
      var hi = pts.length
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (pts(mid).oid < oid) lo = mid + 1 else hi = mid
      }
      if (lo < pts.length && pts(lo).oid == oid) { out(n) = pts(lo); n += 1; lo += 1 }
      i += 1
    }
    if (n == out.length) out else java.util.Arrays.copyOf(out, n)
  }

  /** Oid-sorted union (two-pointer); an oid in both keeps `a`'s point. */
  def union(a: Array[Pt], b: Array[Pt]): Array[Pt] = {
    val out = new mutable.ArrayBuilder.ofRef[Pt]
    var i = 0; var j = 0
    while (i < a.length || j < b.length) {
      if (j == b.length || (i < a.length && a(i).oid <= b(j).oid)) {
        if (j < b.length && a(i).oid == b(j).oid) j += 1
        out += a(i); i += 1
      } else { out += b(j); j += 1 }
    }
    out.result()
  }
}

/** Operations on object sets represented as sorted, deduplicated
  * `ArraySeq[Int]` — compact, structurally comparable, and fast to intersect
  * with a two-pointer sweep. All clusters and convoy memberships in the repo
  * use this representation.
  */
object ObjSets {
  type ObjSet = ArraySeq[Int]

  val empty: ObjSet = ArraySeq.empty[Int]

  /** Build a sorted, deduplicated object set. */
  def of(ids: IterableOnce[Int]): ObjSet = {
    val a = ids.iterator.toArray
    java.util.Arrays.sort(a)
    var w = 0
    var i = 0
    while (i < a.length) {
      if (w == 0 || a(w - 1) != a(i)) { a(w) = a(i); w += 1 }
      i += 1
    }
    ArraySeq.unsafeWrapArray(if (w == a.length) a else java.util.Arrays.copyOf(a, w))
  }

  /** Sorted-set intersection (two-pointer). */
  def intersect(a: ObjSet, b: ObjSet): ObjSet = {
    val out = new mutable.ArrayBuilder.ofInt
    var i = 0; var j = 0
    while (i < a.length && j < b.length) {
      val ai = a(i); val bj = b(j)
      if (ai == bj) { out += ai; i += 1; j += 1 }
      else if (ai < bj) i += 1
      else j += 1
    }
    ArraySeq.unsafeWrapArray(out.result())
  }

  /** The set join of two lists: every `(i, j, as(i) ∩ bs(j))` whose
    * intersection keeps at least `m` objects, ordered by `i`, then `j`.
    * Each member of `as(i)` is looked up once in one oid-sorted owner array
    * of `bs`, and charged to every set of `bs` that holds it, so the sets of
    * `bs` may overlap. Pairs that share no object cost nothing. `m` is at
    * least 1.
    */
  def meets(as: IndexedSeq[ObjSet], bs: IndexedSeq[ObjSet], m: Int): Vector[(Int, Int, ObjSet)] = {
    // (oid << 32 | j) for every member of bs(j), sorted by oid, then j.
    val owners = new Array[Long](bs.iterator.map(_.length).sum)
    var w = 0
    for (j <- bs.indices; o <- bs(j)) { owners(w) = (o.toLong << 32) | j; w += 1 }
    java.util.Arrays.sort(owners)

    // The members of one set of `as` found in `bs`, as (j << 32 | position).
    var hits = new Array[Long](64)
    val out = Vector.newBuilder[(Int, Int, ObjSet)]
    for (i <- as.indices) {
      val a = as(i)
      var h = 0; var lo = 0; var p = 0
      while (p < a.length && lo < owners.length) {
        // The first owner of a(p): its entry for j = 0, or where that would go.
        val at = java.util.Arrays.binarySearch(owners, lo, owners.length, a(p).toLong << 32)
        lo = if (at >= 0) at else -at - 1
        while (lo < owners.length && (owners(lo) >> 32) == a(p)) {
          if (h == hits.length) hits = java.util.Arrays.copyOf(hits, 2 * h)
          hits(h) = (owners(lo) << 32) | p; h += 1; lo += 1
        }
        p += 1
      }
      java.util.Arrays.sort(hits, 0, h)
      var s = 0
      while (s < h) {
        var e = s + 1
        while (e < h && (hits(e) >>> 32) == (hits(s) >>> 32)) e += 1
        if (e - s >= m) out += ((i, (hits(s) >>> 32).toInt, ArraySeq.unsafeWrapArray(Array.tabulate(e - s)(g => a(hits(s + g).toInt)))))
        s = e
      }
    }
    out.result()
  }

  /** Sorted-set union (two-pointer). */
  def union(a: ObjSet, b: ObjSet): ObjSet = {
    val out = new mutable.ArrayBuilder.ofInt
    var i = 0; var j = 0
    while (i < a.length || j < b.length) {
      if (j == b.length || (i < a.length && a(i) <= b(j))) {
        if (j < b.length && a(i) == b(j)) j += 1
        out += a(i); i += 1
      } else { out += b(j); j += 1 }
    }
    ArraySeq.unsafeWrapArray(out.result())
  }

  /** True iff `a ⊆ b` (both sorted). */
  def subsetOf(a: ObjSet, b: ObjSet): Boolean = {
    if (a.length > b.length) return false
    var i = 0; var j = 0
    while (i < a.length && j < b.length) {
      val ai = a(i); val bj = b(j)
      if (ai == bj) { i += 1; j += 1 }
      else if (ai < bj) return false
      else j += 1
    }
    i == a.length
  }

  /** True iff the sorted set `a` contains `x` (binary search). */
  def contains(a: ObjSet, x: Int): Boolean = {
    var lo = 0; var hi = a.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val v = a(mid)
      if (v == x) return true
      else if (v < x) lo = mid + 1
      else hi = mid - 1
    }
    false
  }
}

import ObjSets.ObjSet

/** A convoy candidate or result: objects `objs` stayed (density-)together for
  * every timestamp in the closed interval `[ts, te]`.
  */
final case class Convoy(objs: ObjSet, ts: Int, te: Int) {
  require(ts <= te, s"convoy interval reversed: [$ts,$te]")

  /** Number of timestamps the convoy lives. */
  def len: Int = te - ts + 1

  /** Sub-convoy test (Definition 5): objects and lifespan both contained. */
  def isSubOf(w: Convoy): Boolean =
    w.ts <= ts && te <= w.te && ObjSets.subsetOf(objs, w.objs)

  override def toString: String = s"(${objs.mkString("{", ",", "}")},[$ts,$te])"
}

/** Maximality maintenance over convoy collections (Definitions 6/7). */
object ConvoySets {

  /** Drop duplicates and every convoy that is a strict sub-convoy of another
    * convoy in the collection.
    */
  def maximal(vs: Iterable[Convoy]): Vector[Convoy] = {
    val distinct = vs.toVector.distinct
    distinct.filterNot(v => distinct.exists(w => (w ne v) && w != v && v.isSubOf(w)))
  }

  /** Insert `v` into `acc` keeping only maximal convoys: no-op if `v` is a
    * sub-convoy of an existing entry; otherwise removes entries subsumed by
    * `v` and appends it. Mirrors the `update()` helper of Algorithm 3.
    */
  def update(acc: mutable.ArrayBuffer[Convoy], v: Convoy): Unit = {
    var i = 0
    while (i < acc.length) {
      if (v.isSubOf(acc(i))) return
      i += 1
    }
    acc.filterInPlace(w => !w.isSubOf(v))
    acc += v
  }

  /** Canonical ordering for result comparison in tests and benches. */
  def sorted(vs: Iterable[Convoy]): Vector[Convoy] =
    vs.toVector.sortBy(v => (v.ts, v.te, v.objs.mkString(",")))
}
