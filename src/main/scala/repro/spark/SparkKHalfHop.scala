package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.core.KHalfHop.Params
import repro.core.ObjSets.ObjSet
import repro.store.TrajData

/** Spark-parallel k/2-hop (§7 future work, realized here per the repro
  * brief's distributed-dataflow mapping): `KHalfHop.mine` runs Algorithm 1
  * on the driver, and this object supplies its three point readers, the
  * two data-heavy ones as distributed dataflow over the trajectory frame.
  *
  *   1. *Benchmark clustering* — filter the frame to the benchmark
  *      timestamps and DBSCAN each snapshot in the executors
  *      (`Frames.clusterSnapshots`).
  *   2. *HWMT fan-out* — filter the frame to (hop-window, candidate-object)
  *      pairs via a broadcast pruning map, `groupByKey(window)`, run the
  *      hop-window mining tree per window in the executors. Hop-windows are
  *      mined independently, exactly the parallelism §4.3 points out.
  *   3. *Pruned remainder* — collect only the points of the maximal spanning
  *      convoys' objects (≪ the dataset after pruning) into a `TrajData` on
  *      the driver, whose `select` serves extension and validation.
  */
object SparkKHalfHop {

  /** `df` must have columns (oid INT, t INT, x DOUBLE, y DOUBLE). The report
    * has the phases and `pointsProcessed` of `KHalfHop.run`; the collection
    * of candidate points to the driver is charged to `merge`.
    */
  def run(spark: SparkSession, df: DataFrame, p: Params): (Vector[Convoy], RunReport) = {
    import spark.implicits._

    val frame = df.select($"oid", $"t", $"x", $"y")
    val (ts, te) = Frames.span(frame)
    val h = p.k / 2
    val eps = p.eps; val m = p.m
    val counter = new PointCounter

    def benchClusters(bps: Vector[Int]): Vector[Vector[ObjSet]] = {
      val rows = Frames.clusterSnapshots(frame.filter($"t".isin(bps: _*)), eps, m).collect()
      rows.foreach(r => counter.add(r._3))
      val clustersAt = rows.map(r => r._1 -> r._2.map(s => ObjSets.of(s)).toVector).toMap
      bps.map(b => clustersAt.getOrElse(b, Vector.empty))
    }

    // A point (oid, t) belongs to window i iff b_i < t < b_{i+1} and oid is
    // in one of window i's candidate clusters.
    def spanning(bps: Vector[Int], cc: Vector[Vector[ObjSet]]): Vector[Vector[Convoy]] = {
      val windowObjs: Map[Int, Set[Int]] =
        cc.zipWithIndex.collect { case (sets, i) if sets.nonEmpty => i -> sets.iterator.flatten.toSet }.toMap
      val bWindowObjs = spark.sparkContext.broadcast(windowObjs)
      val bBps = spark.sparkContext.broadcast(bps)
      val bCc = spark.sparkContext.broadcast(cc)
      val rows = frame
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
      bWindowObjs.destroy(); bBps.destroy(); bCc.destroy()
      rows.foreach(r => counter.add(r._3))
      val byWin = rows.map(r => r._1 -> r._2.map { case (o, a, b) => Convoy(ObjSets.of(o), a, b) }.toVector).toMap
      // A window that no candidate point fell into is mined over no points.
      val none: (Int, ObjSet) => Array[Pt] = (_, _) => Array.empty
      cc.indices.toVector.map(i =>
        byWin.getOrElse(i, HWMT.mineWindow(none, bps(i), bps(i + 1), cc(i), eps, m, counter)))
    }

    def pruned(vm: Vector[Convoy]): (Int, ObjSet) => Array[Pt] = {
      val candObjs = vm.iterator.flatMap(_.objs).toSet
      val rows =
        if (candObjs.isEmpty) Array.empty[(Int, Int, Double, Double)]
        else frame.filter($"oid".isin(candObjs.toSeq: _*)).as[(Int, Int, Double, Double)].collect()
      TrajData.fromPoints(ts, te, rows.map(r => (r._2, Pt(r._1, r._3, r._4)))).select
    }

    KHalfHop.mine(ts, te, p, counter)(benchClusters, spanning, pruned)
  }
}
