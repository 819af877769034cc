package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core._
import repro.core.KHalfHop.Params
import repro.core.ObjSets.ObjSet
import repro.store.{MemStore, PointCache, TrajData}

/** Spark-parallel k/2-hop (§7 future work, realized here per the repro
  * brief's distributed-dataflow mapping): the two data-heavy stages run as
  * distributed dataflow over the trajectory DataFrame, and the driver
  * finishes on the pruned remainder.
  *
  *   1. *Benchmark clustering* — filter the frame to the benchmark
  *      timestamps, `groupByKey(t)`, DBSCAN per snapshot in the executors.
  *   2. *Candidate clusters* — tiny driver-side set intersections.
  *   3. *HWMT fan-out* — filter the frame to (hop-window, candidate-object)
  *      pairs via a broadcast pruning map, `groupByKey(window)`, run the
  *      hop-window mining tree per window in the executors. Hop-windows are
  *      mined independently, exactly the parallelism §4.3 points out.
  *   4. *Merge / extend / validate* — collect only the points of surviving
  *      candidate objects (≪ the dataset after pruning) into an in-memory
  *      store on the driver and run `KHalfHop.finish` on it, through the
  *      same per-run `PointCache` as `KHalfHop.run`.
  *
  * Benchmark points and candidate clusters come from `KHalfHop` too, so
  * this driver changes only where the points come from.
  */
object SparkKHalfHop {

  final case class Stats(
      totalPoints: Long,
      benchmarkPointsRead: Long,
      hwmtPointsRead: Long,
      finishPointsRead: Long,
  ) {
    def pointsRead: Long = benchmarkPointsRead + hwmtPointsRead + finishPointsRead
  }

  /** `df` must have columns (oid INT, t INT, x DOUBLE, y DOUBLE). */
  def run(spark: SparkSession, df: DataFrame, p: Params): (Vector[Convoy], Stats) = {
    import spark.implicits._

    val frame = df.select($"oid", $"t", $"x", $"y")
    val totalPoints = frame.count()
    val bounds = frame.agg(min($"t"), max($"t")).head()
    val tsMin = bounds.getInt(0)
    val tsMax = bounds.getInt(1)
    val h = p.k / 2
    val bps = KHalfHop.benchmarkPoints(tsMin, tsMax, p.k)

    // Step 1: benchmark snapshots clustered in executors.
    val eps = p.eps; val m = p.m
    val benchRows = frame
      .filter($"t".isin(bps: _*))
      .as[(Int, Int, Double, Double)]
      .groupByKey(_._2)
      .mapGroups { (t, rows) =>
        val pts = rows.map(r => Pt(r._1, r._3, r._4)).toArray
        (t, DBSCAN.cluster(pts, eps, m).map(_.toSeq), pts.length)
      }
      .collect()
    val benchmarkPointsRead = benchRows.map(_._3.toLong).sum
    val clustersAtBp: Map[Int, Vector[ObjSet]] =
      benchRows.map(r => r._1 -> r._2.map(s => ObjSets.of(s)).toVector).toMap

    // Step 2: candidate clusters per hop-window (driver; inputs are tiny).
    val cc = KHalfHop.candidates(bps.map(b => clustersAtBp.getOrElse(b, Vector.empty)), p.m)

    // Step 3: HWMT per hop-window, distributed. A point (oid, t) belongs to
    // window i iff b_i < t < b_{i+1} and oid is in one of window i's
    // candidate clusters.
    val windowObjs: Map[Int, Set[Int]] =
      cc.zipWithIndex.collect { case (sets, i) if sets.nonEmpty => i -> sets.iterator.flatten.toSet }.toMap
    val bWindowObjs = spark.sparkContext.broadcast(windowObjs)
    val bBps = spark.sparkContext.broadcast(bps)
    val bCc = spark.sparkContext.broadcast(cc)

    val spanningRows = frame
      .as[(Int, Int, Double, Double)]
      .flatMap { r =>
        val bpsv = bBps.value
        val i = (r._2 - bpsv.head) / h // b_i <= t < b_{i+1}
        if (r._2 > bpsv(i) && bWindowObjs.value.get(i).exists(_.contains(r._1))) Some((i, r._1, r._2, r._3, r._4))
        else None
      }
      .groupByKey(_._1)
      .mapGroups { (win, rows) =>
        val b1 = bBps.value(win); val b2 = bBps.value(win + 1)
        val store = new MemStore(TrajData.fromPoints(b1, b2, rows.map(r => (r._3, Pt(r._2, r._4, r._5))).toVector))
        val counter = new PointCounter
        val convoys = HWMT.mineWindow((t, objs) => store.select(t, objs), b1, b2, bCc.value(win), eps, m, counter)
        (win, convoys.map(c => (c.objs.toSeq, c.ts, c.te)), counter.n)
      }
      .collect()

    val hwmtPointsRead = spanningRows.map(_._3).sum
    val spanningByWin: Map[Int, Vector[Convoy]] =
      spanningRows.map(r => r._1 -> r._2.map { case (o, a, b) => Convoy(ObjSets.of(o), a, b) }.toVector).toMap
    val spanning = cc.indices.map { i =>
      if (h == 1) cc(i).map(o => Convoy(o, bps(i), bps(i + 1))) // no interior timestamps
      else spanningByWin.getOrElse(i, Vector.empty) // no candidate point inside: the window died
    }

    // Steps 4-6 on the pruned remainder: collect only candidate objects.
    val vm = Merge.mergeSpanning(spanning, p.m)
    val candObjs = vm.iterator.flatMap(_.objs).toSet
    val (convoys, finishPointsRead) =
      if (candObjs.isEmpty) (Vector.empty[Convoy], 0L)
      else {
        val local = frame
          .filter($"oid".isin(candObjs.toSeq: _*))
          .as[(Int, Int, Double, Double)]
          .collect()
        val cache = new PointCache(new MemStore(TrajData.fromPoints(tsMin, tsMax, local.map(r => (r._2, Pt(r._1, r._3, r._4))))))
        val done = KHalfHop.finish(cache.select, tsMin, tsMax, vm, p, new PointCounter)
        (done.convoys, local.length.toLong)
      }

    bWindowObjs.destroy(); bBps.destroy(); bCc.destroy()
    (convoys, Stats(totalPoints, benchmarkPointsRead, hwmtPointsRead, finishPointsRead))
  }

}
