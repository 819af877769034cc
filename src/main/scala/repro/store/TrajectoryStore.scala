package repro.store

import repro.core.{Pt, Pts}
import repro.core.ObjSets.ObjSet

/** Storage substrate for trajectory data, matching §5 of the paper.
  *
  * k/2-hop reads points in two ways:
  *   1. `snapshot(t)` — full scan of one timestamp (benchmark points);
  *   2. point access by (timestamp, object id): `select(t, oids)` for
  *      extension and validation, and `selectMany` for many `(t, oids)` at
  *      once (HWMT reads one tree level across hop-windows this way).
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

  /** One `select` answer per request, in request order. Stores with a
    * costly round trip answer all requests at once; by default each is its
    * own `select`.
    */
  def selectMany(reqs: Seq[(Int, ObjSet)]): Seq[Array[Pt]] = reqs.map { case (t, oids) => select(t, oids) }

  /** Number of points materialized from storage since the last reset. */
  def pointsRead: Long

  /** Reset the I/O counters (called between bench runs). */
  def resetCounters(): Unit

  override def close(): Unit = ()
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

  /** Restrict to the objects in `objs` (used to build per-convoy views). */
  def restrictTo(objs: ObjSet): TrajData =
    TrajData(ts, te, byTime.map(_.filter(p => repro.core.ObjSets.contains(objs, p.oid))))
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
