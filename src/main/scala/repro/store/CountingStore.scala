package repro.store

/** Shared base for stores backed (directly or indirectly) by a `TrajData`
  * image held in memory; concrete stores differ in what a read *costs*.
  */
abstract class CountingStore extends TrajectoryStore {
  protected var reads: Long = 0L
  final override def pointsRead: Long = reads
  final override def resetCounters(): Unit = reads = 0L
}
