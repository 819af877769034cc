package repro.store

import repro.core.Pt

/** Shared base for stores that charge every point they materialize to one
  * read counter. `MemStore` and `FileStore` serve a `TrajData` image held in
  * memory; `RdbmsStore` reads from DuckDB and `LsmStore` from its on-disk
  * sorted runs. The stores differ in what a read costs.
  */
abstract class CountingStore extends TrajectoryStore {
  protected var reads: Long = 0L
  final override def pointsRead: Long = reads
  final override def resetCounters(): Unit = reads = 0L

  /** Charge the points of one answer, and return them. */
  protected final def charge(pts: Array[Pt]): Array[Pt] = { reads += pts.length; pts }
}
