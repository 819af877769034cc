package repro.core

import scala.collection.immutable.ArraySeq
import ObjSets.ObjSet

/** Deterministic DBSCAN over one snapshot (Ester et al., KDD'96).
  *
  * Conventions used throughout the repo (shared by k/2-hop, the baselines and
  * the brute-force oracle so all comparisons run on identical cluster
  * semantics):
  *
  *   - the eps-neighborhood is *self-inclusive* (`d(p,p)=0 ≤ eps`), so a
  *     point is core iff `|NH(p,eps)| ≥ minPts` counting itself — matching
  *     the paper's `NH(p,eps) = {q ∈ S | d(p,q) ≤ eps}`;
  *   - `minPts = m` (the convoy size parameter doubles as DBSCAN's density
  *     threshold, as in all convoy-mining papers);
  *   - points are processed in ascending `oid` order and border points join
  *     the first cluster that reaches them, making output deterministic;
  *   - every emitted cluster has ≥ minPts members (it contains a core point
  *     and its full neighborhood), i.e. clusters are exactly the paper's
  *     (m,eps)-clusters.
  *
  * Two neighbor-search backends: a uniform grid with cell side `eps`
  * (expected O(n) per query set, used by k/2-hop and VCoDA*) and a naive
  * O(n²) scan (the plain VCoDA baseline). The grid backend scans too below
  * [[ScanBelow]] points, where building the cell table costs more than the
  * distance tests it saves.
  */
object DBSCAN {

  /** Inputs smaller than this are clustered by scanning all pairs, whatever
    * the backend. Nearly all HWMT, extension and validation calls cluster
    * fewer than 32 points; below 64, the scan measured faster than the grid
    * on clustered and on spread-out points alike.
    */
  private final val ScanBelow = 64

  private final val Unseen = 0
  private final val Noise = -1

  /** Cluster `pts` and return the clusters as sorted object sets, ordered by
    * the smallest oid of their core points. Noise points are dropped.
    */
  def cluster(pts: Array[Pt], eps: Double, minPts: Int, indexed: Boolean = true): Vector[ObjSet] = {
    val n = pts.length
    if (n < minPts) return Vector.empty
    val p = Pts.inOidOrder(pts)
    val nb: Neighbors = if (indexed && n >= ScanBelow) new Grid(p, eps) else new Scan(p, eps * eps)

    // label: Unseen, Noise, or the 1-based number of the cluster that holds
    // the point. A point is labelled when it is found, so it is pushed on
    // `stack` at most once; `members` lists the points of the open cluster.
    val label = new Array[Int](n)
    val buf = new Array[Int](n)
    val stack = new Array[Int](n)
    val members = new Array[Int](n)
    val clusters = Vector.newBuilder[ObjSet]
    var cid = 0

    var i = 0
    while (i < n) {
      if (label(i) == Unseen) {
        var cnt = nb.query(i, buf)
        if (cnt < minPts) label(i) = Noise
        else {
          // Expand a new cluster from core point i over its core points.
          cid += 1
          label(i) = cid; members(0) = i
          var size = 1
          var top = 0
          while (cnt >= 0) {
            var a = 0
            while (a < cnt) {
              val q = buf(a)
              val l = label(q)
              if (l == Unseen) { label(q) = cid; members(size) = q; size += 1; stack(top) = q; top += 1 }
              else if (l == Noise) { label(q) = cid; members(size) = q; size += 1 } // border upgrade
              a += 1
            }
            cnt = -1
            while (cnt < 0 && top > 0) {
              top -= 1
              val c = nb.query(stack(top), buf)
              if (c >= minPts) cnt = c
            }
          }
          // Border points already claimed by an earlier cluster can shrink
          // this one below minPts; such remnants are not (m,eps)-clusters
          // (Definition 2 requires size >= m) and are dropped.
          if (size >= minPts) clusters += oidsOf(p, members, size)
        }
      }
      i += 1
    }
    clusters.result()
  }

  /** The sorted, deduplicated oids of the first `size` points in `members`. */
  private def oidsOf(p: Array[Pt], members: Array[Int], size: Int): ObjSet = {
    val a = new Array[Int](size)
    var k = 0
    while (k < size) { a(k) = p(members(k)).oid; k += 1 }
    java.util.Arrays.sort(a)
    var w = 1
    k = 1
    while (k < size) {
      if (a(k) != a(w - 1)) { a(w) = a(k); w += 1 }
      k += 1
    }
    ArraySeq.unsafeWrapArray(if (w == size) a else java.util.Arrays.copyOf(a, w))
  }

  /** Neighbor search over the points of one call. */
  private abstract class Neighbors {

    /** Write the indices of the points within eps of point `i`, itself
      * included, to `out` and return their count.
      */
    def query(i: Int, out: Array[Int]): Int
  }

  /** Naive neighbor search: test every point. */
  private final class Scan(p: Array[Pt], eps2: Double) extends Neighbors {
    private val xs = p.map(_.x)
    private val ys = p.map(_.y)

    def query(i: Int, out: Array[Int]): Int = {
      val xi = xs(i); val yi = ys(i)
      var c = 0
      var j = 0
      while (j < xs.length) {
        val dx = xs(j) - xi; val dy = ys(j) - yi
        if (dx * dx + dy * dy <= eps2) { out(c) = j; c += 1 }
        j += 1
      }
      c
    }
  }

  /** Grid-indexed neighbor search over eps-sided cells: a query tests the
    * points of the 3×3 cell block around its point. The occupied cells are
    * found through an open-addressing table on the packed cell key and
    * numbered in (cx, cy) order, and the points are counting-sorted by cell.
    * The cells (cx + d, cy - 1 .. cy + 1) of one block column are then
    * adjacent, so a query scans three contiguous runs of points, whose
    * bounds one sweep over the cells finds for every cell.
    */
  private final class Grid(p: Array[Pt], eps: Double) extends Neighbors {
    private val eps2 = eps * eps
    private val n = p.length

    @inline private def cellOf(v: Double): Int = math.floor(v / eps).toInt
    // Packed so that the order of keys is the (cx, cy) order of the cells.
    @inline private def key(cx: Int, cy: Int): Long = (cx.toLong << 32) | ((cy ^ Int.MinValue) & 0xffffffffL)

    // Run j of cell c holds positions from(3c + j) until until(3c + j) of xs, ys and idx.
    private val cellOfPt = new Array[Int](n)
    private val xs = new Array[Double](n)
    private val ys = new Array[Double](n)
    private val idx = new Array[Int](n)
    private val (from, until) = build()

    private def build(): (Array[Int], Array[Int]) = {
      // Number the occupied cells in key order.
      val bits = 32 - Integer.numberOfLeadingZeros(2 * n - 1) // table size 2^bits >= 2n
      val mask = (1 << bits) - 1
      val keys = new Array[Long](1 << bits)
      val slots = new Array[Int](1 << bits) // 0 = empty; once numbered, 1 + cell number
      def slot(k: Long): Int = {
        var s = ((k * 0x9e3779b97f4a7c15L) >>> (64 - bits)).toInt
        while (slots(s) != 0 && keys(s) != k) s = (s + 1) & mask
        s
      }
      val slotOfPt = cellOfPt // reused: slot of each point, then its cell
      val cellKeys = new Array[Long](n)
      var cells = 0
      var i = 0
      while (i < n) {
        val k = key(cellOf(p(i).x), cellOf(p(i).y))
        val s = slot(k)
        if (slots(s) == 0) { keys(s) = k; slots(s) = 1; cellKeys(cells) = k; cells += 1 }
        slotOfPt(i) = s
        i += 1
      }
      java.util.Arrays.sort(cellKeys, 0, cells)
      var c = 0
      while (c < cells) { slots(slot(cellKeys(c))) = c + 1; c += 1 }
      i = 0
      while (i < n) { cellOfPt(i) = slots(slotOfPt(i)) - 1; i += 1 }

      // Counting sort of the points by cell: cell c holds start(c) until start(c + 1).
      val start = new Array[Int](cells + 1)
      i = 0
      while (i < n) { start(cellOfPt(i)) += 1; i += 1 }
      c = 1
      while (c < cells) { start(c) += start(c - 1); c += 1 }
      start(cells) = n
      i = n - 1
      while (i >= 0) {
        val c = cellOfPt(i)
        start(c) -= 1
        val k = start(c)
        xs(k) = p(i).x; ys(k) = p(i).y; idx(k) = i
        i -= 1
      }

      // For each column offset d, the cells (cx + d, cy - 1) .. (cx + d, cy + 1)
      // of cell c start at the first cell not below the first of them and end
      // before the first cell above the last; both bounds rise with c.
      @inline def below(k: Long, x: Long, y: Long): Boolean = {
        val kx = k >> 32
        kx < x || (kx == x && (k.toInt ^ Int.MinValue).toLong < y)
      }
      val from = new Array[Int](3 * cells)
      val until = new Array[Int](3 * cells)
      var d = -1
      while (d <= 1) {
        var lo = 0
        var hi = 0
        c = 0
        while (c < cells) {
          val x = (cellKeys(c) >> 32) + d
          val y = (cellKeys(c).toInt ^ Int.MinValue).toLong
          while (lo < cells && below(cellKeys(lo), x, y - 1)) lo += 1
          while (hi < cells && below(cellKeys(hi), x, y + 2)) hi += 1
          from(3 * c + d + 1) = start(lo)
          until(3 * c + d + 1) = start(hi)
          c += 1
        }
        d += 1
      }
      (from, until)
    }

    def query(i: Int, out: Array[Int]): Int = {
      val xi = p(i).x; val yi = p(i).y
      val r = 3 * cellOfPt(i)
      var c = 0
      var j = r
      while (j < r + 3) {
        var k = from(j)
        val e = until(j)
        while (k < e) {
          val ddx = xs(k) - xi; val ddy = ys(k) - yi
          if (ddx * ddx + ddy * ddy <= eps2) { out(c) = idx(k); c += 1 }
          k += 1
        }
        j += 1
      }
      c
    }
  }
}
