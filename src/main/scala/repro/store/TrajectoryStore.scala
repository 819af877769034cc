package repro.store

import repro.core.{Pt, Pts}
import repro.core.ObjSets.ObjSet

/** Storage substrate for trajectory data, matching §5 of the paper.
  *
  * k/2-hop reads points in two ways:
  *   1. full scans of timestamps: `snapshot(t)`, and `snapshots(times)` for all
  *      benchmark points at once;
  *   2. point access by (timestamp, object id): `select(t, oids)`, and
  *      `selectMany` for many requests at once. A request `(t, oids, t0, t1)`
  *      offers the store the span `[t0, t1]` around `t`, and is answered with
  *      `select`'s answers over a span of the store's choosing inside it.
  *      HWMT offers each request its hop-window's interior, and k/2-hop
  *      reads ahead each extension pass's first step in one batch; later
  *      extension and validation reads are one request each, through
  *      `selectAround`.
  *
  * A store overrides four read members at most: `snapshot`, `select`,
  * `snapshots` and `selectMany`. The batched two default to one `snapshot`
  * or `select` per timestamp; a store whose round trip is costly overrides
  * them, and may answer the single two as one-element batches, as
  * `RdbmsStore` and `PointCache` do.
  *
  * Implementations also maintain I/O counters so benches can report the
  * storage-level cost alongside the algorithm-level "points processed"
  * pruning statistic of Table 5.
  */
trait TrajectoryStore extends AutoCloseable {
  /** First timestamp in the dataset (paper's Ts). */
  def ts: Int

  /** Last timestamp in the dataset (paper's Te). */
  def te: Int

  /** Total number of points stored. */
  def totalPoints: Long

  /** All points present at timestamp `t`, in ascending oid order. */
  def snapshot(t: Int): Array[Pt]

  /** Points of the given objects at timestamp `t`, in ascending oid order
    * (objects absent at `t` are simply missing from the result). `oids` is
    * sorted. [[PointCache]] relies on this order.
    */
  def select(t: Int, oids: ObjSet): Array[Pt]

  /** One `snapshot` answer per timestamp of `times`, in order (repeats and
    * timestamps outside `[ts, te]` included); by default each is its own
    * `snapshot`.
    */
  def snapshots(times: Seq[Int]): Seq[Array[Pt]] = times.map(snapshot)

  /** One answer per request `(t, oids, t0, t1)`, in request order, where
    * `[t0, t1]` must hold `t`. The answer is `(lo, answers)`, with
    * `answers(i) == select(lo + i, oids)` over a span `[lo, lo + n)` that
    * holds `t` and lies inside `[t0, t1]`. Which span is the store's choice:
    * by default only `t` is read, with one `select`, and a store with a
    * costly round trip reads every request's whole `[t0, t1]` at once.
    */
  def selectMany(reqs: Seq[(Int, ObjSet, Int, Int)]): Seq[(Int, Seq[Array[Pt]])] =
    reqs.map { case (t, oids, t0, t1) =>
      TrajectoryStore.requireHolds(t, t0, t1)
      (t, Seq(select(t, oids)))
    }

  /** [[selectMany]] of the one request `(t, oids, t0, t1)`. */
  final def selectAround(t: Int, oids: ObjSet, t0: Int, t1: Int): (Int, Seq[Array[Pt]]) =
    selectMany(Seq((t, oids, t0, t1))).head

  /** Number of points materialized from storage since the last reset. */
  def pointsRead: Long

  /** Reset the I/O counters (called between bench runs). */
  def resetCounters(): Unit

  override def close(): Unit = ()
}

object TrajectoryStore {
  /** Fail unless the span `[t0, t1]` of a `selectMany` request holds its `t`. */
  private[store] def requireHolds(t: Int, t0: Int, t1: Int): Unit = require(t0 <= t && t <= t1, s"[$t0, $t1] must hold $t")
}

/** In-memory dataset: the common interchange format produced by the
  * generators and consumed by every store constructor.
  *
  * `byTime(i)` holds the points of timestamp `ts + i`, each array in
  * strictly increasing oid order: duplicate `(t, oid)` rows are rejected,
  * and so are NaN or infinite coordinates, which DBSCAN would silently
  * turn into noise and the grid index into a wrapped cell.
  */
final case class TrajData(ts: Int, te: Int, byTime: Array[Array[Pt]]) {
  require(byTime.length == te - ts + 1, "byTime length must cover [ts, te]")
  byTime.foreach { pts =>
    var i = 0
    while (i < pts.length) {
      val p = pts(i)
      require(java.lang.Double.isFinite(p.x) && java.lang.Double.isFinite(p.y), s"non-finite coordinates: $p")
      require(i == 0 || pts(i - 1).oid < p.oid, "oids must be strictly increasing within each timestamp")
      i += 1
    }
  }

  def totalPoints: Long = byTime.foldLeft(0L)(_ + _.length)

  /** All points at `t`, in oid order; empty outside `[ts, te]`. */
  def snapshot(t: Int): Array[Pt] = if (t < ts || t > te) Array.empty[Pt] else byTime(t - ts)

  /** The points of the sorted `oids` at `t`, in oid order. */
  def select(t: Int, oids: ObjSet): Array[Pt] = Pts.select(snapshot(t), oids)

  /** Flat (t, point) iterator, useful for loading stores and Spark frames. */
  def iterator: Iterator[(Int, Pt)] =
    byTime.iterator.zipWithIndex.flatMap { case (pts, i) => pts.iterator.map(p => (ts + i, p)) }
}

object TrajData {
  /** Build from an unordered point list. Timestamps must form a contiguous
    * range (missing timestamps become empty snapshots).
    */
  def fromPoints(points: Iterable[(Int, Pt)]): TrajData = {
    require(points.nonEmpty, "empty dataset")
    fromPoints(points.iterator.map(_._1).min, points.iterator.map(_._1).max, points)
  }

  /** Build from an unordered point list over the explicit range [ts, te];
    * timestamps without points become empty snapshots.
    */
  def fromPoints(ts: Int, te: Int, points: Iterable[(Int, Pt)]): TrajData = {
    val buf = Array.fill(te - ts + 1)(Vector.newBuilder[Pt])
    points.foreach { case (t, p) => buf(t - ts) += p }
    TrajData(ts, te, buf.map(_.result().sortBy(_.oid).toArray))
  }
}
