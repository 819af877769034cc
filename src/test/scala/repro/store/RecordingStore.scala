package repro.store

import scala.collection.mutable

import repro.core.Pt
import repro.core.ObjSets.ObjSet

/** Test decorator that records every call it forwards to `underlying` and
  * every `(t, oid)` the underlying store returned. It forwards the batched
  * members too, so a decorated store keeps its own overrides of them:
  *   - a `selectMany` (and so a `selectAround`) is one entry of `batches`,
  *     not one `calls` entry per request: each request with the span it was
  *     answered over;
  *   - a `snapshots` is one entry of `snapshotBatches`, and one snapshot
  *     `calls` entry per timestamp it asked for.
  *
  * `threads` holds every thread that called one of the read members.
  */
class RecordingStore(underlying: TrajectoryStore) extends TrajectoryStore {
  import RecordingStore.{Around, Call}

  val calls = mutable.ArrayBuffer.empty[Call]
  val batches = mutable.ArrayBuffer.empty[Seq[Around]]
  val snapshotBatches = mutable.ArrayBuffer.empty[Seq[Int]]
  val returned = mutable.ArrayBuffer.empty[(Int, Int)]
  val threads: java.util.Set[Thread] = java.util.concurrent.ConcurrentHashMap.newKeySet[Thread]()

  override def ts: Int = underlying.ts
  override def te: Int = underlying.te
  override def totalPoints: Long = underlying.totalPoints

  override def snapshot(t: Int): Array[Pt] = record(Call(t, None), underlying.snapshot(t))

  override def select(t: Int, oids: ObjSet): Array[Pt] = record(Call(t, Some(oids)), underlying.select(t, oids))

  override def selectMany(reqs: Seq[(Int, ObjSet, Int, Int)]): Seq[(Int, Seq[Array[Pt]])] = {
    caller()
    val got = underlying.selectMany(reqs)
    batches += reqs.lazyZip(got).map { case ((t, oids, t0, t1), (lo, pts)) => Around(t, oids, t0, t1, lo, pts.length) }
    got.foreach { case (lo, pts) => pts.iterator.zipWithIndex.foreach { case (at, i) => returned ++= at.iterator.map(p => (lo + i, p.oid)) } }
    got
  }

  override def snapshots(times: Seq[Int]): Seq[Array[Pt]] = {
    snapshotBatches += times
    val got = underlying.snapshots(times)
    times.lazyZip(got).foreach((t, pts) => record(Call(t, None), pts))
    got
  }

  private def caller(): Unit = threads.add(Thread.currentThread())

  private def record(c: Call, pts: Array[Pt]): Array[Pt] = {
    caller()
    calls += c
    returned ++= pts.iterator.map(p => (c.t, p.oid))
    pts
  }

  override def pointsRead: Long = underlying.pointsRead
  override def resetCounters(): Unit = underlying.resetCounters()
  override def close(): Unit = underlying.close()
}

object RecordingStore {
  /** One store call: a snapshot of `t` when `oids` is `None`, else a select. */
  final case class Call(t: Int, oids: Option[ObjSet])

  /** One `selectMany` request `(t, oids, t0, t1)`, answered over `[lo, lo + n)`. */
  final case class Around(t: Int, oids: ObjSet, t0: Int, t1: Int, lo: Int, n: Int)
}
