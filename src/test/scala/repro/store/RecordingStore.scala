package repro.store

import scala.collection.mutable

import repro.core.Pt
import repro.core.ObjSets.ObjSet

/** Test decorator that records every call it forwards to `underlying` and
  * every `(t, oid)` the underlying store returned. A `selectMany` is one
  * entry of `batches`, not one `calls` entry per request.
  */
class RecordingStore(underlying: TrajectoryStore) extends TrajectoryStore {
  import RecordingStore.Call

  val calls = mutable.ArrayBuffer.empty[Call]
  val batches = mutable.ArrayBuffer.empty[Seq[(Int, ObjSet)]]
  val returned = mutable.ArrayBuffer.empty[(Int, Int)]

  override def ts: Int = underlying.ts
  override def te: Int = underlying.te
  override def totalPoints: Long = underlying.totalPoints

  override def snapshot(t: Int): Array[Pt] = record(Call(t, None), underlying.snapshot(t))

  override def select(t: Int, oids: ObjSet): Array[Pt] = record(Call(t, Some(oids)), underlying.select(t, oids))

  override def selectMany(reqs: Seq[(Int, ObjSet)]): Seq[Array[Pt]] = {
    batches += reqs
    val got = underlying.selectMany(reqs)
    reqs.lazyZip(got).foreach { case ((t, _), pts) => returned ++= pts.iterator.map(p => (t, p.oid)) }
    got
  }

  private def record(c: Call, pts: Array[Pt]): Array[Pt] = {
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
}
