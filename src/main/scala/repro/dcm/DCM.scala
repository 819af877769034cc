package repro.dcm

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{Convoy, ConvoySets, Merge, ObjSets, PhaseTimer, PointCounter, Pt, RunReport}
import repro.core.KHalfHop.Params
import repro.baseline.PCCD
import repro.spark.Frames
import repro.store.TrajData

/** Distributed Convoy Mining (Orakzai et al., MDM'16) — the distributed
  * baseline of §6, ported from Hadoop MapReduce to Spark.
  *
  * The time axis is split into partitions of `lambda` timestamps. Each
  * partition is mined independently in the executors (snapshot clustering +
  * local PCCD *without* the k filter, since a short partial convoy may
  * complete across partitions); its rows pass the `TrajData` checks first,
  * so a duplicate `(t, oid)` row or a non-finite coordinate fails the run.
  * The driver then sweeps the partitions in time order with the DCM merge,
  * [[repro.core.Merge.mergeSpanning]], which joins a convoy that ends at a
  * partition's last timestamp to the next partition's convoys that start
  * one timestamp later with ≥ m shared objects, and finally applies the
  * length filter to the sweep's maximal output.
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
    val (tsMin, tsMax) = Frames.span(frame)

    // Local phase: per-partition snapshot clustering + PCCD partials.
    val partials = timer.phase("local") {
      frame
        .as[(Int, Int, Double, Double)]
        .groupByKey(r => ((r._2.toLong - tsMin) / lambda).toInt)
        .mapGroups { (part, rows) =>
          // In Long: `lo + lambda - 1` wraps for timestamps near Int.MaxValue.
          val lo = (tsMin + part.toLong * lambda).toInt
          val hi = math.min(tsMax.toLong, lo.toLong + lambda - 1).toInt
          val data = TrajData.fromPoints(lo, hi, rows.map(r => (r._2, Pt(r._1, r._3, r._4))).toVector)
          val counter = new PointCounter
          val local = PCCD.mine(lo to hi, t => counter.cluster(data.snapshot(t), eps, m), m)
          (part, local.map(c => (c.objs.toSeq, c.ts, c.te)), counter.n)
        }
        .collect()
    }(_.iterator.map(_._2.length.toLong).sum)

    // Merge phase: one sweep over the partitions in time order.
    val result = timer.phase("merge") {
      val byPart = partials.iterator.map { case (i, cs, _) =>
        i -> cs.map { case (o, a, b) => Convoy(ObjSets.of(o), a, b) }.toVector
      }.toMap
      val parts = (0 to ((tsMax.toLong - tsMin) / lambda).toInt).map(byPart.getOrElse(_, Vector.empty))
      Merge.mergeSpanning(parts, m).filter(_.len >= p.k)
    }(_.length)

    (ConvoySets.sorted(result), timer.report(partials.iterator.map(_._3).sum))
  }
}
