package repro.baseline

import repro.core.{Convoy, Merge}
import repro.core.ObjSets.ObjSet

/** Partially Connected Convoy Discovery (Yoon & Shahabi '09) — the corrected
  * candidate-growing convoy miner that CMC should have been. Used as:
  *
  *   - the mining stage of the VCoDA/VCoDA* baselines,
  *   - the local miner inside DCM partitions,
  *   - the exact slow path of FC validation (restricted re-mining),
  *   - the reference implementation k/2-hop is tested against.
  *
  * Sweeps timestamps in order with the one convoy sweep,
  * [[repro.core.Merge.mergeSpanning]], over each timestamp's clusters taken
  * as convoys `[t, t]`: every live candidate is intersected with the
  * clusters that hold at least m of its objects (one set join per
  * timestamp), fresh clusters seed new candidates, a candidate that another
  * live candidate covers (its objects, from an equal-or-earlier start) is
  * dropped, and a candidate that can no longer continue intact is emitted
  * as a (maximal) convoy.
  */
object PCCD {

  /** All maximal (partially connected) convoys over the contiguous `range`,
    * no length filter. `clustersAt(t)` must return the (m,eps)-clusters of
    * timestamp `t` (disjoint sorted object sets).
    */
  def mine(range: Seq[Int], clustersAt: Int => Vector[ObjSet], m: Int): Vector[Convoy] =
    Merge.mergeSpanning(range.toIndexedSeq.map(t => clustersAt(t).map(Convoy(_, t, t))), m)

  /** Maximal convoys of length ≥ k (the miner half of Definition 8, before
    * FC validation).
    */
  def maximalConvoys(range: Seq[Int], clustersAt: Int => Vector[ObjSet], m: Int, k: Int): Vector[Convoy] =
    mine(range, clustersAt, m).filter(_.len >= k)
}
