package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.{max, min}

import repro.core.{DBSCAN, Pt}

/** The trajectory-frame readers that the Spark miners share. A frame has the
  * columns (oid INT, t INT, x DOUBLE, y DOUBLE).
  */
object Frames {

  /** The time range `[ts, te]` of `frame`. An empty frame has null bounds
    * and is mined as the empty range `[0, -1]`, like `TrajData(0, -1, …)`.
    */
  def span(frame: DataFrame): (Int, Int) = {
    val bounds = frame.agg(min("t"), max("t")).head()
    if (bounds.isNullAt(0)) (0, -1) else (bounds.getInt(0), bounds.getInt(1))
  }

  /** Every snapshot of `frame`, DBSCAN-clustered in the executors: one row
    * `(t, clusters, points clustered)` per timestamp.
    */
  def clusterSnapshots(frame: DataFrame, eps: Double, m: Int): Dataset[(Int, Seq[Seq[Int]], Int)] = {
    import frame.sparkSession.implicits._
    frame
      .select($"oid", $"t", $"x", $"y")
      .as[(Int, Int, Double, Double)]
      .groupByKey(_._2)
      .mapGroups { (t, rows) =>
        val pts = rows.map(r => Pt(r._1, r._3, r._4)).toArray
        (t, DBSCAN.cluster(pts, eps, m).map(_.toSeq), pts.length)
      }
  }
}
