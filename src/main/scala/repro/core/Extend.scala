package repro.core

import scala.collection.mutable

import ObjSets.ObjSet

/** Extension of maximal spanning convoys to their true lifespans
  * (Algorithm 3 and its left-facing mirror, §4.5).
  *
  * Each maximal spanning convoy is extended one timestamp at a time past its
  * current end, re-clustering only its own objects. If the whole object set
  * survives as one cluster the convoy grows; otherwise the convoy is closed
  * into the result (`update()` keeps the result maximal) and each surviving
  * sub-cluster continues as its own candidate. After the right pass, every
  * right-closed convoy is extended to the left the same way; only then is
  * the minimum-length constraint k applied (a convoy too short after the
  * right pass may still reach k by growing left); `KHalfHop.extend` runs
  * both passes for the sequential and the Spark driver.
  */
object Extend {

  /** Extend one convoy until every descendant candidate is closed; closed
    * candidates are merged into `acc` maximally. `forward = true` extends
    * the end time towards `limit` (≥ te), `forward = false` the start time
    * towards `limit` (≤ ts).
    */
  def extendOne(
      select: (Int, ObjSet) => Array[Pt],
      v: Convoy,
      limit: Int,
      forward: Boolean,
      eps: Double,
      m: Int,
      counter: PointCounter,
      acc: mutable.ArrayBuffer[Convoy],
  ): Unit = {
    var prev = Vector(v)
    var t = if (forward) v.te + 1 else v.ts - 1
    while (prev.nonEmpty && (if (forward) t <= limit else t >= limit)) {
      // One batched read per timestamp: candidates are pairwise disjoint.
      val clustersPer = HWMT.reclusterAll(select, t, prev.map(_.objs), eps, m, counter)
      val next = Vector.newBuilder[Convoy]
      prev.iterator.zip(clustersPer.iterator).foreach { case (w, clusters) =>
        val survivedWhole = clusters.exists(_ == w.objs)
        if (survivedWhole) {
          next += (if (forward) Convoy(w.objs, w.ts, t) else Convoy(w.objs, t, w.te))
        } else {
          ConvoySets.update(acc, w) // w cannot be extended in its current shape
          clusters.foreach { c =>
            next += (if (forward) Convoy(c, w.ts, t) else Convoy(c, t, w.te))
          }
        }
      }
      prev = next.result()
      t = if (forward) t + 1 else t - 1
    }
    prev.foreach(w => ConvoySets.update(acc, w))
  }
}
