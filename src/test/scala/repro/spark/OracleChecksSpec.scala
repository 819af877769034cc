package repro.spark

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.KHalfHop
import repro.data.TrajGen

/** DuckDB cross-checks for every DataFrame/SQL-shaped step of the pipeline:
  * a wrong filter, join or aggregation here would corrupt the distributed
  * algorithms even if the local mining code is correct.
  */
class OracleChecksSpec extends SparkSpec {

  private lazy val data = TrajGen.trucksLite(scale = 0.2)
  private lazy val df = TrajGen.toDF(spark, data).cache()

  test("benchmark-point selection (t ≡ ts mod ⌊k/2⌋) matches DuckDB") {
    // The driver's filter on the Spark side, Lemma 3's definition on DuckDB's.
    val k = 20; val h = k / 2
    val sel = df.filter(col("t").isin(KHalfHop.benchmarkPoints(data.ts, data.te, k): _*))
      .select(col("oid"), col("t"), col("x"), col("y"))
    Oracle.assertEquivalent(
      sel,
      s"SELECT oid, t, CAST(x AS DOUBLE) AS x, CAST(y AS DOUBLE) AS y FROM traj " +
        s"WHERE (CAST(t AS INTEGER) - ${data.ts}) % $h = 0",
      "traj" -> df,
    )
  }

  test("snapshot cardinalities (points per timestamp) match DuckDB") {
    val agg = df.groupBy(col("t")).agg(count(lit(1)) as "n")
    Oracle.assertEquivalent(
      agg,
      "SELECT t, COUNT(*) AS n FROM traj GROUP BY t",
      "traj" -> df,
    )
  }

  test("eps-neighbor pair counts per timestamp match DuckDB (self-join within eps)") {
    val eps = 25.0
    val small = df.filter(col("t") < data.ts + 20)
    val a = small.select(col("t"), col("oid") as "o1", col("x") as "x1", col("y") as "y1")
    val b = small.select(col("t"), col("oid") as "o2", col("x") as "x2", col("y") as "y2")
    val pairs = a.join(b, Seq("t"))
      .filter(col("o1") < col("o2"))
      .filter((col("x1") - col("x2")) * (col("x1") - col("x2")) + (col("y1") - col("y2")) * (col("y1") - col("y2")) <= eps * eps)
      .groupBy(col("t")).agg(count(lit(1)) as "pairs")
    Oracle.assertEquivalent(
      pairs,
      s"""SELECT a.t, COUNT(*) AS pairs
         |FROM traj a JOIN traj b ON a.t = b.t
         |WHERE CAST(a.oid AS INTEGER) < CAST(b.oid AS INTEGER)
         |  AND CAST(a.t AS INTEGER) < ${data.ts + 20}
         |  AND (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) * (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE))
         |    + (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) * (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) <= ${eps * eps}
         |GROUP BY a.t""".stripMargin,
      "traj" -> small,
    )
  }

  test("candidate-object collect filter (oid IN set) matches DuckDB") {
    // The driver collects the candidate objects' points over all timestamps.
    val keep = Seq(0, 1, 2, 5, 8)
    val pruned = df.filter(col("oid").isin(keep: _*))
      .select(col("oid"), col("t"), col("x"), col("y"))
    Oracle.assertEquivalent(
      pruned,
      s"""SELECT oid, t, CAST(x AS DOUBLE) AS x, CAST(y AS DOUBLE) AS y FROM traj
         |WHERE CAST(oid AS INTEGER) IN (${keep.mkString(",")})""".stripMargin,
      "traj" -> df,
    )
  }

  test("object pair co-location timestamps (SPARE star edges) match DuckDB") {
    val eps = 25.0
    val small = df.filter(col("t") < data.ts + 15 && col("oid") < 12)
    val a = small.select(col("t"), col("oid") as "o1", col("x") as "x1", col("y") as "y1")
    val b = small.select(col("t"), col("oid") as "o2", col("x") as "x2", col("y") as "y2")
    val edges = a.join(b, Seq("t"))
      .filter(col("o1") < col("o2"))
      .filter((col("x1") - col("x2")) * (col("x1") - col("x2")) + (col("y1") - col("y2")) * (col("y1") - col("y2")) <= eps * eps)
      .select(col("o1"), col("o2"), col("t"))
    Oracle.assertEquivalent(
      edges,
      s"""SELECT CAST(a.oid AS INTEGER) AS o1, CAST(b.oid AS INTEGER) AS o2, a.t
         |FROM traj a JOIN traj b ON a.t = b.t
         |WHERE CAST(a.oid AS INTEGER) < CAST(b.oid AS INTEGER)
         |  AND (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) * (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE))
         |    + (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) * (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) <= ${eps * eps}""".stripMargin,
      "traj" -> small,
    )
  }

  test("temporal partition assignment (DCM lambda buckets) matches DuckDB") {
    val lambda = 25
    val parts = df.select(col("oid"), col("t"), ((col("t") - data.ts) / lambda).cast("int") as "part")
    Oracle.assertEquivalent(
      parts,
      s"SELECT oid, t, CAST(FLOOR((CAST(t AS INTEGER) - ${data.ts}) / $lambda.0) AS INTEGER) AS part FROM traj",
      "traj" -> df,
    )
  }
}
