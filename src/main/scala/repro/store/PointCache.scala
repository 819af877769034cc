package repro.store

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import repro.core.Pt
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

  private var fetched = 0L

  /** Points this cache has fetched from the store. */
  def pointsFetched: Long = fetched

  override def ts: Int = store.ts
  override def te: Int = store.te
  override def totalPoints: Long = store.totalPoints

  override def snapshot(t: Int): Array[Pt] =
    snapshots.getOrElseUpdate(t, {
      val all = store.snapshot(t)
      fetched += all.length
      all
    })

  override def select(t: Int, oids: ObjSet): Array[Pt] = {
    val all = snapshots.getOrNull(t)
    if (all ne null) oids.iterator.map(find(all, _)).filter(_ ne null).toArray
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
    fetched += got.length
    var g = 0
    for (i <- found.indices if found(i) eq null) {
      val p = if (g < got.length && got(g).oid == oids(i)) { g += 1; got(g - 1) } else Absent
      points.update(key(t, oids(i)), p)
      found(i) = p
    }
    if (g != got.length)
      throw new IllegalStateException(s"select($t, ...) returned points out of oid order or not asked for")
  }

  /** The point of `oid` in the oid-sorted `pts`, or null. */
  private def find(pts: Array[Pt], oid: Int): Pt = {
    var lo = 0; var hi = pts.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val o = pts(mid).oid
      if (o == oid) return pts(mid)
      else if (o < oid) lo = mid + 1
      else hi = mid - 1
    }
    null
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
