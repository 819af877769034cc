package repro.core

import scala.collection.mutable

import ObjSets.ObjSet

/** Mutable counter for the "points processed" pruning statistic (Table 5):
  * every point fed into a DBSCAN run anywhere in the pipeline is counted.
  */
final class PointCounter {
  var n: Long = 0L
  def add(k: Long): Unit = n += k
}

/** Hop-Window Mining Tree (Algorithm 2).
  *
  * Mines the 1st-order spanning convoys of one hop-window `(b1, b2)` by
  * re-clustering the candidate cluster sets at the window's interior
  * timestamps in binary-search-tree order: the middle timestamp first, then
  * the middles of the two halves, level by level. Adjacent timestamps are
  * the most likely to be coincidentally together, so probing the most
  * distant timestamps first kills doomed candidates earliest; an empty
  * candidate set aborts the whole window.
  */
object HWMT {

  /** Level-order (midpoint-first, left-to-right within a level) traversal of
    * the integer range [lo, hi] — the HWMT node sequence of Figure 4.
    */
  def treeOrder(lo: Int, hi: Int): Vector[Int] = {
    if (lo > hi) return Vector.empty
    val out = Vector.newBuilder[Int]
    val q = mutable.Queue((lo, hi))
    while (q.nonEmpty) {
      val (l, h) = q.dequeue()
      // In Long: `l + h` wraps for timestamps past about 1.07e9 (Unix seconds).
      val mid = ((l.toLong + h) >> 1).toInt
      out += mid
      // Empty halves are not queued: `mid - 1` wraps at Int.MinValue and
      // `mid + 1` at Int.MaxValue, which would turn them into the full range.
      if (mid > l) q.enqueue((l, mid - 1))
      if (mid < h) q.enqueue((mid + 1, h))
    }
    out.result()
  }

  /** HWMT* probe order used during validation (§4.6): the extremes of the
    * candidate's lifespan first, then the interior in tree order.
    */
  def starOrder(ts: Int, te: Int): Vector[Int] =
    if (ts == te) Vector(ts)
    else Vector(ts, te) ++ treeOrder(ts + 1, te - 1)

  /** Re-cluster each candidate set at timestamp `t` with a single batched
    * read: the candidate sets are pairwise disjoint, so the union is fetched
    * once (and counted once) and each candidate clusters its own points of
    * it. Returns the per-candidate cluster lists.
    */
  def reclusterAll(
      select: (Int, ObjSet) => Array[Pt],
      t: Int,
      cands: Vector[ObjSet],
      eps: Double,
      m: Int,
      counter: PointCounter,
  ): Vector[Vector[ObjSet]] = {
    if (cands.isEmpty) return Vector.empty
    val pts = select(t, ObjSets.of(cands.iterator.flatten))
    counter.add(pts.length)
    cands.map(c => DBSCAN.cluster(Pts.select(pts, c), eps, m))
  }

  /** Mine the spanning convoys of hop-window `(b1, b2)` from its candidate
    * cluster set `cc`. Interior timestamps only — the candidates already
    * reflect the clusterings at `b1` and `b2`.
    */
  def mineWindow(
      select: (Int, ObjSet) => Array[Pt],
      b1: Int,
      b2: Int,
      cc: Vector[ObjSet],
      eps: Double,
      m: Int,
      counter: PointCounter,
  ): Vector[Convoy] = {
    var cands = cc
    val order = treeOrder(b1 + 1, b2 - 1)
    var oi = 0
    while (oi < order.length && cands.nonEmpty) {
      val t = order(oi)
      cands = reclusterAll(select, t, cands, eps, m, counter).flatten
      oi += 1
    }
    cands.map(o => Convoy(o, b1, b2))
  }
}
