package repro.store

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import repro.core.{ObjSets, Pt, Pts}
import repro.core.ObjSets.ObjSet

/** Read-through cache over `store` for the lifetime of one mining run: each
  * `(t, oid)` is fetched from the store at most once.
  *
  *   - `snapshot(t)` makes `t` fully covered: later selects at `t` are
  *     answered from the snapshot without a store call.
  *   - `select(t, oids)` asks the store only for the oids not yet covered at
  *     `t`; an object the store does not return is remembered as absent, so
  *     it is never asked for again.
  *   - `prefetch(reqs)` does the same for many `(t, oids)` at once, with one
  *     `store.selectMany` call (HWMT reads one tree level ahead this way).
  *
  * Answers are exactly what the store would return, in ascending oid order,
  * so DBSCAN sees identical input. The cache relies on the store returning
  * its points in ascending oid order (the `TrajectoryStore` contract) and
  * fails loudly when a `select` or `selectMany` answer breaks it.
  *
  * k/2-hop feeds every point it reads to DBSCAN, except what HWMT's
  * read-ahead fetched for candidates that died earlier in the same tree
  * level, so a run's cache holds about `pointsProcessed` points, plus one
  * marker per object asked for and found absent. It has no size limit:
  * drop the cache when the run ends.
  * A `snapshot(t)` after a `select` at the same `t` reads the whole
  * timestamp again (the store has no "rest of `t`" access path); k/2-hop
  * takes all its snapshots before its first select.
  */
final class PointCache(store: TrajectoryStore) extends TrajectoryStore {
  import PointCache.Absent

  /** Snapshots taken, by timestamp: these timestamps are fully covered. */
  private val snapshots = mutable.LongMap.empty[Array[Pt]]

  /** Selected points by timestamp, then oid; `Absent` marks an object the
    * store was asked for at `t` and did not return. One small map per
    * timestamp keeps a run's lookups at one `t` close together in memory.
    */
  private val points = mutable.LongMap.empty[mutable.LongMap[Pt]]

  override def ts: Int = store.ts
  override def te: Int = store.te
  override def totalPoints: Long = store.totalPoints

  override def snapshot(t: Int): Array[Pt] =
    snapshots.getOrElseUpdate(t, store.snapshot(t))

  override def select(t: Int, oids: ObjSet): Array[Pt] = {
    val all = snapshots.getOrNull(t)
    if (all ne null) return Pts.select(all, oids)
    val at = points.getOrNull(t)
    val found = new Array[Pt](oids.length)
    var missing = oids.length
    if (at ne null) {
      var i = 0
      while (i < oids.length) {
        found(i) = at.getOrNull(oids(i))
        if (found(i) ne null) missing -= 1
        i += 1
      }
    }
    if (missing > 0) {
      val ask = new Array[Int](missing)
      var j = 0
      for (i <- found.indices if found(i) eq null) { ask(j) = oids(i); j += 1 }
      val asked = ArraySeq.unsafeWrapArray(ask)
      val got = remember(t, asked, store.select(t, asked))
      j = 0
      for (i <- found.indices if found(i) eq null) { found(i) = got(j); j += 1 }
    }
    found.filter(_ ne Absent)
  }

  /** Read ahead: fetch every `(t, oids)` request's oids not yet covered at
    * its `t` in one `store.selectMany` call, so that later selects of them
    * make no store call.
    */
  def prefetch(reqs: Seq[(Int, ObjSet)]): Unit = {
    val asks = reqs.iterator.map { case (t, oids) =>
      val at = points.getOrNull(t)
      (t, if (snapshots.contains(t)) ObjSets.empty else if (at eq null) oids else oids.filterNot(at.contains(_)))
    }.filter(_._2.nonEmpty).toVector
    if (asks.nonEmpty) {
      val answers = store.selectMany(asks)
      if (answers.length != asks.length)
        throw new IllegalStateException(s"selectMany answered ${answers.length} of ${asks.length} requests")
      asks.lazyZip(answers).foreach { case ((t, ask), got) => remember(t, ask, got) }
    }
  }

  /** Cache the store's answer `got` to a select of the uncovered `ask` at
    * `t`. Returns the cached entries in `ask`'s order: each object's point,
    * or `Absent` where the store did not return it.
    */
  private def remember(t: Int, ask: ObjSet, got: Array[Pt]): Array[Pt] = {
    val at = points.getOrElseUpdate(t, mutable.LongMap.empty[Pt])
    val entries = new Array[Pt](ask.length)
    var g = 0
    var i = 0
    while (i < ask.length) {
      val oid = ask(i)
      entries(i) = if (g < got.length && got(g).oid == oid) { g += 1; got(g - 1) } else Absent
      at.update(oid, entries(i))
      i += 1
    }
    if (g != got.length)
      throw new IllegalStateException(s"select($t, ...) returned points out of oid order or not asked for")
    entries
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
}
