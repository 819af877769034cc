package repro.store

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import repro.core.{Pt, Pts}
import repro.core.ObjSets.ObjSet

/** Read-through cache over `store` for the lifetime of one mining run: each
  * `(t, oid)` is fetched from the store at most once.
  *
  *   - `snapshot(t)` makes `t` fully covered: later selects at `t` are
  *     answered from the snapshot without a store call.
  *   - `select(t, oids)` asks the store only for the oids not yet covered at
  *     `t`; an object the store does not return is remembered as absent, so
  *     it is never asked for again.
  *
  * Answers are exactly what the store would return, in ascending oid order,
  * so DBSCAN sees identical input. The cache relies on the store returning
  * its points in ascending oid order (the `TrajectoryStore` contract) and
  * fails loudly when a `select` answer breaks it.
  *
  * k/2-hop feeds every point it reads to DBSCAN, so a run's cache holds at
  * most `pointsProcessed` points, plus one marker per object asked for and
  * found absent. It has no size limit: drop the cache when the run ends.
  * A `snapshot(t)` after a `select` at the same `t` reads the whole
  * timestamp again (the store has no "rest of `t`" access path); k/2-hop
  * takes all its snapshots before its first select.
  */
final class PointCache(store: TrajectoryStore) extends TrajectoryStore {
  import PointCache.{Absent, key}

  /** Snapshots taken, by timestamp: these timestamps are fully covered. */
  private val snapshots = mutable.LongMap.empty[Array[Pt]]

  /** Selected points by `key(t, oid)`; `Absent` marks an object the store
    * was asked for at `t` and did not return.
    */
  private val points = mutable.LongMap.empty[Pt]

  override def ts: Int = store.ts
  override def te: Int = store.te
  override def totalPoints: Long = store.totalPoints

  override def snapshot(t: Int): Array[Pt] =
    snapshots.getOrElseUpdate(t, store.snapshot(t))

  override def select(t: Int, oids: ObjSet): Array[Pt] = {
    val all = snapshots.getOrNull(t)
    if (all ne null) Pts.select(all, oids)
    else {
      val found = new Array[Pt](oids.length)
      var missing = 0
      var i = 0
      while (i < oids.length) {
        found(i) = points.getOrNull(key(t, oids(i)))
        if (found(i) eq null) missing += 1
        i += 1
      }
      if (missing > 0) fetch(t, oids, found, missing)
      found.filter(_ ne Absent)
    }
  }

  /** Fetch the `missing` oids whose slots in `found` are empty in one store
    * call, cache them, and fill their slots (with `Absent` where the store
    * returned nothing).
    */
  private def fetch(t: Int, oids: ObjSet, found: Array[Pt], missing: Int): Unit = {
    val ask = new Array[Int](missing)
    var j = 0
    for (i <- found.indices if found(i) eq null) { ask(j) = oids(i); j += 1 }
    val got = store.select(t, ArraySeq.unsafeWrapArray(ask))
    var g = 0
    for (i <- found.indices if found(i) eq null) {
      val p = if (g < got.length && got(g).oid == oids(i)) { g += 1; got(g - 1) } else Absent
      points.update(key(t, oids(i)), p)
      found(i) = p
    }
    if (g != got.length)
      throw new IllegalStateException(s"select($t, ...) returned points out of oid order or not asked for")
  }

  /** Reads through the cache are charged by the store itself. */
  override def pointsRead: Long = store.pointsRead
  override def resetCounters(): Unit = store.resetCounters()

  /** Closing the cache leaves the store open: the caller owns it. */
  override def close(): Unit = ()
}

object PointCache {
  /** Marker for "asked for, not present at t"; compared by reference. */
  private val Absent = Pt(0, Double.NaN, Double.NaN)

  private def key(t: Int, oid: Int): Long = (t.toLong << 32) | (oid & 0xffffffffL)
}
