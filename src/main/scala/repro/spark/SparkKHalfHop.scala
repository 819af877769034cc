package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core._
import repro.core.KHalfHop.Params
import repro.store.TrajData

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
  *      candidate objects (≪ the dataset after pruning) into a `TrajData`
  *      on the driver and run `KHalfHop.finish` on its `select`.
  *
  * Benchmark points and candidate clusters come from `KHalfHop` too, so
  * this driver changes only where the points come from.
  */
object SparkKHalfHop {

  /** `df` must have columns (oid INT, t INT, x DOUBLE, y DOUBLE). The report
    * has the phases and `pointsProcessed` of `KHalfHop.run`; the collection
    * of candidate points to the driver is charged to `merge`. An empty frame
    * is mined as the empty range `[0, -1]`, like `TrajData(0, -1, …)`.
    */
  def run(spark: SparkSession, df: DataFrame, p: Params): (Vector[Convoy], RunReport) = {
    import spark.implicits._

    val frame = df.select($"oid", $"t", $"x", $"y")
    val bounds = frame.agg(min($"t"), max($"t")).head()
    val (tsMin, tsMax) = if (bounds.isNullAt(0)) (0, -1) else (bounds.getInt(0), bounds.getInt(1))
    val h = p.k / 2
    val bps = KHalfHop.benchmarkPoints(tsMin, tsMax, p.k)
    val counter = new PointCounter
    val timer = new PhaseTimer

    // Step 1: benchmark snapshots clustered in executors.
    val eps = p.eps; val m = p.m
    val benchClusters = timer.phase("bench") {
      val benchRows = frame
        .filter($"t".isin(bps: _*))
        .as[(Int, Int, Double, Double)]
        .groupByKey(_._2)
        .mapGroups { (t, rows) =>
          val pts = rows.map(r => Pt(r._1, r._3, r._4)).toArray
          (t, DBSCAN.cluster(pts, eps, m).map(_.toSeq), pts.length)
        }
        .collect()
      benchRows.foreach(r => counter.add(r._3))
      val clustersAtBp = benchRows.map(r => r._1 -> r._2.map(s => ObjSets.of(s)).toVector).toMap
      bps.map(b => clustersAtBp.getOrElse(b, Vector.empty))
    }(KHalfHop.totalSize)

    // Step 2: candidate clusters per hop-window (driver; inputs are tiny).
    val cc = timer.phase("cc")(KHalfHop.candidates(benchClusters, p.m))(KHalfHop.totalSize)

    // Step 3: HWMT per hop-window, distributed. A point (oid, t) belongs to
    // window i iff b_i < t < b_{i+1} and oid is in one of window i's
    // candidate clusters.
    val windowObjs: Map[Int, Set[Int]] =
      cc.zipWithIndex.collect { case (sets, i) if sets.nonEmpty => i -> sets.iterator.flatten.toSet }.toMap
    val bWindowObjs = spark.sparkContext.broadcast(windowObjs)
    val bBps = spark.sparkContext.broadcast(bps)
    val bCc = spark.sparkContext.broadcast(cc)

    val spanning = timer.phase("hwmt") {
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
          val window = TrajData.fromPoints(b1, b2, rows.map(r => (r._3, Pt(r._2, r._4, r._5))).toVector)
          val windowCounter = new PointCounter
          val convoys = HWMT.mineWindow(window.select, b1, b2, bCc.value(win), eps, m, windowCounter)
          (win, convoys.map(c => (c.objs.toSeq, c.ts, c.te)), windowCounter.n)
        }
        .collect()
      spanningRows.foreach(r => counter.add(r._3))
      val spanningByWin: Map[Int, Vector[Convoy]] =
        spanningRows.map(r => r._1 -> r._2.map { case (o, a, b) => Convoy(ObjSets.of(o), a, b) }.toVector).toMap
      cc.indices.toVector.map { i =>
        if (h == 1) cc(i).map(o => Convoy(o, bps(i), bps(i + 1))) // no interior timestamps
        else spanningByWin.getOrElse(i, Vector.empty) // no candidate point inside: the window died
      }
    }(KHalfHop.totalSize)
    bWindowObjs.destroy(); bBps.destroy(); bCc.destroy()

    // Step 4: merge, then collect only the points of candidate objects.
    val (vm, local) = timer.phase("merge") {
      val vm = Merge.mergeSpanning(spanning, p.m)
      val candObjs = vm.iterator.flatMap(_.objs).toSet
      val rows =
        if (candObjs.isEmpty) Array.empty[(Int, Int, Double, Double)]
        else frame.filter($"oid".isin(candObjs.toSeq: _*)).as[(Int, Int, Double, Double)].collect()
      (vm, TrajData.fromPoints(tsMin, tsMax, rows.map(r => (r._2, Pt(r._1, r._3, r._4)))))
    }(_._1.length)

    // Steps 5-6 on the pruned remainder.
    val convoys = KHalfHop.finish(local.select, tsMin, tsMax, vm, p, counter, timer)
    (convoys, timer.report(counter.n))
  }
}
