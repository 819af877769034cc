package repro.store

import repro.core.Pt
import repro.core.ObjSets.ObjSet

/** Zero-cost in-memory store used by unit tests and the in-memory
  * experiments: it serves `data` and charges every point it returns, with no
  * I/O simulation.
  */
final class MemStore(data: TrajData) extends CountingStore {
  override def ts: Int = data.ts
  override def te: Int = data.te
  override def totalPoints: Long = data.totalPoints

  override def snapshot(t: Int): Array[Pt] = charge(data.snapshot(t))

  override def select(t: Int, oids: ObjSet): Array[Pt] = charge(data.select(t, oids))
}
