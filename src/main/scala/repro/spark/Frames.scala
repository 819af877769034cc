package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.{abs, col, count, count_distinct, isnan, lit, max, min, when}

import repro.core.{DBSCAN, Pt}
import repro.store.TrajData

/** The trajectory-frame readers that the Spark miners share. A frame has the
  * columns (oid INT, t INT, x DOUBLE, y DOUBLE).
  */
object Frames {

  /** The time range `[ts, te]` of `frame`. An empty frame has null bounds
    * and is mined as the empty range `[0, -1]`, like `TrajData(0, -1, …)`.
    *
    * The same pass checks every row against the `TrajData` contract, so a
    * miner that reads only part of the frame still rejects the whole of it:
    * a duplicate `(t, oid)` row or a NaN or infinite coordinate throws
    * `IllegalArgumentException`.
    */
  def span(frame: DataFrame): (Int, Int) = {
    val bad = (c: String) => isnan(col(c)) || abs(col(c)) === Double.PositiveInfinity
    val row = frame.agg(min("t"), max("t"), count(lit(1)), count_distinct(col("t"), col("oid")),
      count(when(bad("x") || bad("y"), true))).head()
    require(row.getLong(2) == row.getLong(3), s"${row.getLong(2) - row.getLong(3)} duplicate (t, oid) rows")
    require(row.getLong(4) == 0, s"${row.getLong(4)} rows with non-finite coordinates")
    if (row.isNullAt(0)) (0, -1) else (row.getInt(0), row.getInt(1))
  }

  /** Every snapshot of `frame`, DBSCAN-clustered in the executors: one row
    * `(t, clusters, points clustered)` per timestamp. Each snapshot passes
    * the `TrajData` checks first, so a duplicate `(t, oid)` row or a
    * non-finite coordinate fails the job.
    */
  def clusterSnapshots(frame: DataFrame, eps: Double, m: Int): Dataset[(Int, Seq[Seq[Int]], Int)] = {
    import frame.sparkSession.implicits._
    frame
      .select($"oid", $"t", $"x", $"y")
      .as[(Int, Int, Double, Double)]
      .groupByKey(_._2)
      .mapGroups { (t, rows) =>
        val pts = TrajData.fromPoints(t, t, rows.map(r => (t, Pt(r._1, r._3, r._4))).toVector).snapshot(t)
        (t, DBSCAN.cluster(pts, eps, m).map(_.toSeq), pts.length)
      }
  }
}
