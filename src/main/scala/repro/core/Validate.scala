package repro.core

import scala.collection.mutable

import ObjSets.ObjSet
import repro.baseline.PCCD

/** Fully-connected convoy validation (§4.6, Algorithm 4) — the paper's
  * *corrected* DCVal.
  *
  * A candidate (O, T) is FC iff it is a convoy of the database restricted to
  * its own objects; the paper's key observation is that this can be decided
  * by re-mining the restriction with any exact convoy miner. For each
  * candidate we:
  *
  *   1. probe T in HWMT* order (extremes first, then interior midpoints —
  *      the §4.6 access pattern) re-clustering O alone at each timestamp; if
  *      O survives as a single whole cluster everywhere, the candidate is FC
  *      and is accepted without ever materializing sub-convoys;
  *   2. otherwise re-mine the restriction exactly (restricted PCCD, reusing
  *      the clusterings cached by the fast path) and recursively validate
  *      every maximal result of length ≥ k — this recursion is precisely the
  *      correction over single-pass DCVal: a *shrunken* candidate may itself
  *      be connected only through objects it just lost.
  *
  * Candidates are memoised so shared sub-convoys are validated once; the
  * final result keeps only maximal FC convoys.
  */
object Validate {

  def fullyConnected(
      cands: Seq[Convoy],
      select: (Int, ObjSet) => Array[Pt],
      eps: Double,
      m: Int,
      k: Int,
      counter: PointCounter,
  ): Vector[Convoy] = {
    val seen = mutable.HashSet.empty[Convoy]
    val out = mutable.ArrayBuffer.empty[Convoy]
    val work = mutable.Stack.empty[Convoy]
    cands.foreach(work.push)

    while (work.nonEmpty) {
      val v = work.pop()
      if (v.len >= k && v.objs.length >= m && seen.add(v)) {
        val cache = mutable.HashMap.empty[Int, Vector[ObjSet]]
        def clustersAt(t: Int): Vector[ObjSet] =
          cache.getOrElseUpdate(t, counter.cluster(select(t, v.objs), eps, m))

        // Fast path: HWMT*-ordered whole-set confirmation.
        var fc = true
        val order = HWMT.starOrder(v.ts, v.te)
        var i = 0
        while (fc && i < order.length) {
          val cl = clustersAt(order(i))
          fc = cl.length == 1 && cl.head == v.objs
          i += 1
        }

        if (fc) out += v
        else {
          // Slow path: exact re-mining of DB[T(v)]|O(v); recurse on results.
          val sub = PCCD.maximalConvoys(v.ts to v.te, clustersAt, m, k)
          sub.foreach(s => if (s != v) work.push(s))
        }
      }
    }
    ConvoySets.maximal(out)
  }
}
