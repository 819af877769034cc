package repro.store

import scala.collection.mutable

import repro.core.{ObjSets, Pt, Pts}
import repro.core.ObjSets.ObjSet

/** Read-through cache over `store` for the lifetime of one mining run: each
  * `(t, oid)` is fetched from the store at most once.
  *
  * Per timestamp it keeps the points read so far, in ascending oid order,
  * and the oids asked for; a `snapshot(t)` covers `t` whole. Each read makes
  * at most one store call, of its own kind, and asks only for what is not
  * covered yet:
  *   - `snapshot` and `snapshots` read the timestamps not yet covered whole;
  *   - `select` reads the oids not yet asked for at `t`;
  *   - `selectMany` (and so `selectAround`) asks, for each request, for the
  *     oids not yet asked for at its `t`, offering the request's span; it
  *     drops the requests left with nothing to ask. It files every timestamp
  *     of each span the store answered, so no later read of those oids
  *     inside it reaches the store, and answers each request for its `t`
  *     alone.
  * An object the store does not return stays asked for.
  *
  * Answers are exactly what the store would return, in ascending oid order,
  * so DBSCAN sees identical input. The cache relies on the store returning
  * its points in ascending oid order (the `TrajectoryStore` contract) and
  * fails loudly when an answer breaks it.
  *
  * k/2-hop clusters every point it reads, except what a span read fetched
  * ahead for candidates and convoys that died earlier in the span, so a
  * run's cache holds about `pointsProcessed` points. It has no size limit:
  * drop the cache when the run ends. A `snapshot(t)` after a `select` at the
  * same `t` reads the whole timestamp again (the store has no "rest of `t`"
  * access path); k/2-hop takes all its snapshots before its first select.
  */
final class PointCache(store: TrajectoryStore) extends TrajectoryStore {
  import PointCache.At

  private val cache = mutable.LongMap.empty[At]

  override def ts: Int = store.ts
  override def te: Int = store.te
  override def totalPoints: Long = store.totalPoints

  override def snapshot(t: Int): Array[Pt] = {
    val at = cache.getOrNull(t)
    if ((at ne null) && (at.asked eq null)) at.pts
    else {
      val pts = store.snapshot(t)
      cache(t) = new At(pts, null)
      pts
    }
  }

  override def snapshots(times: Seq[Int]): Seq[Array[Pt]] = {
    val ask = times.distinct.filter { t => val at = cache.getOrNull(t); (at eq null) || (at.asked ne null) }
    if (ask.nonEmpty) {
      val answers = store.snapshots(ask)
      if (answers.length != ask.length)
        throw new IllegalStateException(s"snapshots answered ${answers.length} of ${ask.length} timestamps")
      ask.lazyZip(answers).foreach((t, pts) => cache(t) = new At(pts, null))
    }
    times.map(cache(_).pts)
  }

  override def select(t: Int, oids: ObjSet): Array[Pt] = {
    val ask = uncovered(t, oids)
    if (ask.nonEmpty) add(t, ask, store.select(t, ask))
    lookup(t, oids)
  }

  override def selectMany(reqs: Seq[(Int, ObjSet, Int, Int)]): Seq[(Int, Seq[Array[Pt]])] = {
    reqs.foreach { case (t, _, t0, t1) => TrajectoryStore.requireHolds(t, t0, t1) }
    val asks = reqs.iterator.map { case (t, oids, t0, t1) => (t, uncovered(t, oids), t0, t1) }.filter(_._2.nonEmpty).toVector
    if (asks.nonEmpty) {
      val answers = store.selectMany(asks)
      if (answers.length != asks.length)
        throw new IllegalStateException(s"selectMany answered ${answers.length} of ${asks.length} requests")
      asks.lazyZip(answers).foreach { case ((t, ask, t0, t1), (lo, got)) =>
        if (lo < t0 || t < lo || lo.toLong + got.length <= t || lo.toLong + got.length - 1 > t1)
          throw new IllegalStateException(s"selectMany answered ($t, ..., $t0, $t1) over [$lo, ${lo.toLong + got.length - 1}]")
        got.iterator.zipWithIndex.foreach { case (pts, i) =>
          val u = lo + i
          // Oids filed at `u` before, by an earlier read or request: keep only the rest.
          val rest = uncovered(u, ask)
          if (rest.length == ask.length) add(u, ask, pts)
          else { check(u, ask, pts); if (rest.nonEmpty) add(u, rest, Pts.select(pts, rest)) }
        }
      }
    }
    reqs.map { case (t, oids, _, _) => (t, Seq(lookup(t, oids))) }
  }

  /** The oids of `oids` not yet asked for at `t`. */
  private def uncovered(t: Int, oids: ObjSet): ObjSet = {
    val at = cache.getOrNull(t)
    if (at eq null) oids
    else if (at.asked eq null) ObjSets.empty
    else oids.filterNot(ObjSets.contains(at.asked, _))
  }

  /** Merge the store's answer `got` to the uncovered `ask` at `t` into the
    * cache. `got` must be a subsequence of `ask`: in oid order, asked for.
    */
  private def add(t: Int, ask: ObjSet, got: Array[Pt]): Unit = {
    check(t, ask, got)
    val at = cache.getOrNull(t)
    if (at eq null) cache(t) = new At(got, ask)
    else {
      at.pts = Pts.union(at.pts, got)
      at.asked = ObjSets.union(at.asked, ask)
    }
  }

  /** Fail unless `got`, the store's answer at `t`, is a subsequence of `ask`. */
  private def check(t: Int, ask: ObjSet, got: Array[Pt]): Unit = {
    var g = 0
    ask.foreach(oid => if (g < got.length && got(g).oid == oid) g += 1)
    if (g != got.length)
      throw new IllegalStateException(s"select($t, ...) returned points out of oid order or not asked for")
  }

  private def lookup(t: Int, oids: ObjSet): Array[Pt] = {
    val at = cache.getOrNull(t)
    if (at eq null) Array.empty[Pt] else Pts.select(at.pts, oids)
  }

  /** Reads through the cache are charged by the store itself. */
  override def pointsRead: Long = store.pointsRead
  override def resetCounters(): Unit = store.resetCounters()

  /** Closing the cache leaves the store open: the caller owns it. */
  override def close(): Unit = ()
}

object PointCache {
  /** What the cache holds at one timestamp: the points read, oid-sorted, and
    * the oids asked for; `asked` is null once a snapshot covers the timestamp.
    */
  private final class At(var pts: Array[Pt], var asked: ObjSet)
}
