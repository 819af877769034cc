package repro.store

import repro.core.{ObjSets, Pt}
import repro.core.ObjSets.ObjSet

/** Zero-cost in-memory store used by unit tests and as the local substrate
  * inside Spark executors (HWMT fan-out); reads are counted point-for-point
  * but involve no I/O simulation.
  */
final class MemStore(data: TrajData) extends CountingStore {
  override def ts: Int = data.ts
  override def te: Int = data.te
  override def totalPoints: Long = data.totalPoints

  override def snapshot(t: Int): Array[Pt] = {
    val r = if (t < ts || t > te) Array.empty[Pt] else data.byTime(t - ts)
    reads += r.length
    r
  }

  override def select(t: Int, oids: ObjSet): Array[Pt] = {
    val r =
      if (t < ts || t > te) Array.empty[Pt]
      else data.byTime(t - ts).filter(p => ObjSets.contains(oids, p.oid))
    reads += r.length
    r
  }
}
