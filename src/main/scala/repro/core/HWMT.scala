package repro.core

import ObjSets.ObjSet

/** Mutable counter for the "points processed" pruning statistic (Table 5):
  * every point fed into a DBSCAN run anywhere in the pipeline is counted.
  */
final class PointCounter {
  var n: Long = 0L
  def add(k: Long): Unit = n += k

  /** Count `pts`, then cluster them: the one place a run counts its DBSCAN input. */
  def cluster(pts: Array[Pt], eps: Double, m: Int, indexed: Boolean = true): Vector[ObjSet] = {
    add(pts.length)
    DBSCAN.cluster(pts, eps, m, indexed)
  }
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

  /** The levels of the HWMT over the integer range [lo, hi]: the midpoint,
    * then the midpoints of the two halves, and so on, each level
    * left-to-right — the node sequence of Figure 4, split by tree depth.
    */
  def treeLevels(lo: Int, hi: Int): Vector[Vector[Int]] = {
    val levels = Vector.newBuilder[Vector[Int]]
    var ranges = if (lo > hi) Vector.empty[(Int, Int)] else Vector((lo, hi))
    while (ranges.nonEmpty) {
      val level = Vector.newBuilder[Int]
      val next = Vector.newBuilder[(Int, Int)]
      ranges.foreach { case (l, h) =>
        // In Long: `l + h` wraps for timestamps past about 1.07e9 (Unix seconds).
        val mid = ((l.toLong + h) >> 1).toInt
        level += mid
        // Empty halves are dropped: `mid - 1` wraps at Int.MinValue and
        // `mid + 1` at Int.MaxValue, which would turn them into the full range.
        if (mid > l) next += ((l, mid - 1))
        if (mid < h) next += ((mid + 1, h))
      }
      levels += level.result()
      ranges = next.result()
    }
    levels.result()
  }

  /** Level-order (midpoint-first, left-to-right within a level) traversal of
    * the integer range [lo, hi] — the HWMT node sequence of Figure 4.
    */
  def treeOrder(lo: Int, hi: Int): Vector[Int] = treeLevels(lo, hi).flatten

  /** HWMT* probe order used during validation (§4.6): the extremes of the
    * candidate's lifespan first, then the interior in tree order.
    */
  def starOrder(ts: Int, te: Int): Vector[Int] =
    if (ts == te) Vector(ts)
    else Vector(ts, te) ++ treeOrder(ts + 1, te - 1)

  /** Re-cluster each candidate set at timestamp `t` with a single batched
    * read: the candidate sets are pairwise disjoint, so the union is fetched
    * once and each candidate clusters (and counts) its own points of it.
    * Returns the per-candidate cluster lists.
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
    cands.map(c => counter.cluster(Pts.select(pts, c), eps, m))
  }

  /** Mine the spanning convoys of hop-window `(b1, b2)` from its candidate
    * cluster set `cc`. Interior timestamps only — the candidates already
    * reflect the clusterings at `b1` and `b2`. [[mineWindows]] for one
    * window, each level read through `select` one timestamp at a time.
    */
  def mineWindow(
      select: (Int, ObjSet) => Array[Pt],
      b1: Int,
      b2: Int,
      cc: Vector[ObjSet],
      eps: Double,
      m: Int,
      counter: PointCounter,
  ): Vector[Convoy] =
    mineWindows(_.map { case (t, o) => select(t, o) }, Vector(b1, b2), Vector(cc), eps, m, counter).head

  /** [[mineWindow]] for every hop-window `(bps(i), bps(i + 1))` with
    * candidates `cc(i)`, run one tree level at a time across the windows.
    * Each level is read with one `selectMany` call: one `(t, union of the
    * window's live candidates)` request per timestamp of the level, so a
    * store can answer the whole level at once. Each window then re-clusters
    * the level's timestamps from those answers in tree order; hop-windows
    * share no interior timestamp, so the answers are keyed by `t`. A window
    * stops at the timestamp where its last candidate dies, so the convoys
    * and the points fed to DBSCAN are exactly those of each window mined
    * alone.
    */
  def mineWindows(
      selectMany: Seq[(Int, ObjSet)] => Seq[Array[Pt]],
      bps: Vector[Int],
      cc: Vector[Vector[ObjSet]],
      eps: Double,
      m: Int,
      counter: PointCounter,
  ): Vector[Vector[Convoy]] = {
    // An empty dataset has no benchmark point, and so no hop-window.
    require(cc.isEmpty || bps.length == cc.length + 1, "one candidate set per hop-window")
    val cands = cc.toArray
    val levels = cc.indices.map(i => if (cc(i).isEmpty) Vector.empty else treeLevels(bps(i) + 1, bps(i + 1) - 1))
    val depth = levels.iterator.map(_.length).maxOption.getOrElse(0)
    var d = 0
    // Evenly spaced benchmark points: every live window has a request at `d`.
    while (d < depth && cands.exists(_.nonEmpty)) {
      val reqs = Vector.newBuilder[(Int, ObjSet)]
      for (i <- cands.indices if d < levels(i).length && cands(i).nonEmpty) {
        val union = ObjSets.of(cands(i).iterator.flatten)
        levels(i)(d).foreach(t => reqs += ((t, union)))
      }
      val batch = reqs.result()
      val read = batch.iterator.map(_._1).zip(selectMany(batch)).toMap
      val select = (t: Int, oids: ObjSet) => Pts.select(read(t), oids)
      for (i <- cands.indices if d < levels(i).length) {
        val level = levels(i)(d)
        var li = 0
        while (li < level.length && cands(i).nonEmpty) {
          cands(i) = reclusterAll(select, level(li), cands(i), eps, m, counter).flatten
          li += 1
        }
      }
      d += 1
    }
    cands.indices.toVector.map(i => cands(i).map(o => Convoy(o, bps(i), bps(i + 1))))
  }
}
