package repro.dcm

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Convoy, ConvoySets, DBSCAN, Merge, ObjSets, PhaseTimer, PointCounter, Pt, RunReport}
import repro.core.KHalfHop.Params
import repro.core.ObjSets.ObjSet
import repro.baseline.PCCD

/** Distributed Convoy Mining (Orakzai et al., MDM'16) — the distributed
  * baseline of §6, ported from Hadoop MapReduce to Spark.
  *
  * The time axis is split into partitions of `lambda` timestamps. Each
  * partition is mined independently in the executors (snapshot clustering +
  * local PCCD *without* the k filter, since a short partial convoy may
  * complete across partitions). The driver then folds the per-partition
  * results left to right with the DCM merge, joining convoys that meet at
  * partition boundaries with ≥ m shared objects, and finally applies the
  * length filter and maximality.
  *
  * As in the paper, performance hinges on the data-dependent `lambda` —
  * exactly the tuning burden k/2-hop is designed to remove.
  */
object DCM {

  /** The sorted maximal convoys and the run's report: phases `local`
    * (output: per-partition partial convoys) and `merge` (output: convoys),
    * and the points the executors clustered.
    */
  def run(spark: SparkSession, df: DataFrame, p: Params, lambda: Int): (Vector[Convoy], RunReport) = {
    import spark.implicits._
    require(lambda >= 2, "partition length lambda must be >= 2")
    val eps = p.eps; val m = p.m
    val timer = new PhaseTimer

    val frame = df.select($"oid", $"t", $"x", $"y")
    val bounds = frame.agg(min($"t"), max($"t")).head()
    // An empty frame has null bounds: mine the empty range [0, -1].
    val (tsMin, tsMax) = if (bounds.isNullAt(0)) (0, -1) else (bounds.getInt(0), bounds.getInt(1))

    // Local phase: per-partition snapshot clustering + PCCD partials.
    val partials = timer.phase("local") {
      frame
        .as[(Int, Int, Double, Double)]
        .groupByKey(r => (r._2 - tsMin) / lambda)
        .mapGroups { (part, rows) =>
          val byT = rows.toArray.groupBy(_._2)
          val lo = tsMin + part * lambda
          val hi = math.min(tsMax, lo + lambda - 1)
          val counter = new PointCounter
          val clustersAt: Int => Vector[ObjSet] = t =>
            byT.get(t) match {
              case Some(pts) =>
                counter.add(pts.length)
                DBSCAN.cluster(pts.map(r => Pt(r._1, r._3, r._4)), eps, m)
              case None => Vector.empty
            }
          val local = PCCD.mine(lo to hi, clustersAt, m)
          (part, local.map(c => (c.objs.toSeq, c.ts, c.te)), counter.n)
        }
        .collect()
        .sortBy(_._1)
    }(_.iterator.map(_._2.length.toLong).sum)

    // Merge phase: fold adjacent partitions over their shared boundary.
    val result = timer.phase("merge") {
      val nParts = (tsMax - tsMin) / lambda + 1
      val byPart: Map[Int, Vector[Convoy]] =
        partials.iterator.map { case (i, cs, _) =>
          i -> cs.map { case (o, a, b) => Convoy(ObjSets.of(o), a, b) }.toVector
        }.toMap
      var acc = byPart.getOrElse(0, Vector.empty)
      var i = 1
      while (i < nParts) {
        val boundary = tsMin + i * lambda - 1 // last timestamp of partition i-1
        acc = Merge.mergeAdjacent(acc, byPart.getOrElse(i, Vector.empty), boundary, m)
        i += 1
      }
      ConvoySets.maximal(acc.filter(_.len >= p.k))
    }(_.length)

    (ConvoySets.sorted(result), timer.report(partials.iterator.map(_._3).sum))
  }
}
