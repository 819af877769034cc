package repro.baseline

import repro.core.{Convoy, ConvoySets, PhaseTimer, PointCounter, RunReport, Validate}
import repro.core.KHalfHop.Params
import repro.core.ObjSets.ObjSet
import repro.store.TrajectoryStore

/** The VCoDA / VCoDA* single-machine baselines (Yoon & Shahabi's valid-convoy
  * discovery pipeline, as benchmarked in §6): cluster *every* timestamp of
  * the dataset, grow maximal partially-connected convoys with PCCD, then
  * validate them to fully connected convoys with (corrected) DCVal.
  *
  * `indexed = false` is plain VCoDA (naive O(n²) DBSCAN neighbor search);
  * `indexed = true` is VCoDA* (grid-indexed neighbor search). Both touch
  * every point of the dataset — the cost k/2-hop exists to avoid — so their
  * runtime is essentially flat in k (Figures 7h/8a).
  *
  * Like k/2-hop's benchmark step, the `cluster` phase reads every snapshot
  * on the calling thread and clusters them on the JVM's common fork-join
  * pool ([[repro.core.PointCounter.clusterAll]]), so both get the same cores.
  * PCCD and validation are sequential.
  */
object VCoDA {

  /** The sorted FC convoys and the run's report: phases `cluster` (every
    * snapshot; output: clusters), `mine` (PCCD; output: the pre-validation
    * convoys) and `val` (output: convoys).
    */
  final case class Result(convoys: Vector[Convoy], report: RunReport)

  def run(store: TrajectoryStore, p: Params, indexed: Boolean): Result = {
    val counter = new PointCounter
    val timer = new PhaseTimer

    val range = store.ts to store.te
    val clusters: Map[Int, Vector[ObjSet]] = timer.phase("cluster") {
      range.zip(counter.clusterAll(store.snapshots(range), p.eps, p.m, indexed)).toMap
    }(_.valuesIterator.map(_.length.toLong).sum)

    val maximal = timer.phase("mine")(PCCD.maximalConvoys(range, clusters, p.m, p.k))(_.length)

    val fc = timer.phase("val") {
      Validate.fullyConnected(maximal, (t, objs) => store.select(t, objs), p.eps, p.m, p.k, counter)
    }(_.length)

    Result(ConvoySets.sorted(fc), timer.report(counter.n))
  }
}
