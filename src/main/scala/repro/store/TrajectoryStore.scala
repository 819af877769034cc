package repro.store

import repro.core.Pt
import repro.core.ObjSets.ObjSet

/** Storage substrate for trajectory data, matching §5 of the paper.
  *
  * k/2-hop needs exactly two access paths:
  *   1. `snapshot(t)` — full scan of one timestamp (benchmark points);
  *   2. `select(t, oids)` — point access by (timestamp, object id)
  *      (HWMT re-clustering, extension, validation).
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
  * strictly increasing oid order: duplicate `(t, oid)` rows are rejected.
  */
final case class TrajData(ts: Int, te: Int, byTime: Array[Array[Pt]]) {
  require(byTime.length == te - ts + 1, "byTime length must cover [ts, te]")
  require(byTime.forall(pts => (1 until pts.length).forall(i => pts(i - 1).oid < pts(i).oid)),
    "oids must be strictly increasing within each timestamp")

  def totalPoints: Long = byTime.foldLeft(0L)(_ + _.length)

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
