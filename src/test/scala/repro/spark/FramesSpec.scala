package repro.spark

import org.apache.spark.sql.DataFrame

import repro.{SparkSpec, TestData}
import repro.core.{Convoy, ObjSets}
import repro.core.KHalfHop.Params
import repro.dcm.DCM
import repro.spare.SPARE

/** Every Spark miner rejects a frame that `TrajData` rejects, as the
  * sequential miners do, even where the bad row is noise.
  */
class FramesSpec extends SparkSpec {
  import spark.implicits._

  private val p = Params(3, 4, 1.5)

  /** The trio convoy `{0,1,2}` over t = 0..11, the far object 9 beside it at
    * every t, and `extra` on top.
    */
  private def frame(extra: (Int, Int, Double, Double)*): DataFrame = {
    val rows = TestData.trio(0).iterator.map { case (t, pt) => (pt.oid, t, pt.x, pt.y) }.toSeq ++
      (0 to 11).map(t => (9, t, 500.0, 0.0)) ++ extra
    rows.toDF("oid", "t", "x", "y")
  }

  private val miners: Seq[(String, DataFrame => Vector[Convoy])] = Seq(
    "SPARE" -> (df => SPARE.run(spark, df, p)._1),
    "DCM" -> (df => DCM.run(spark, df, p, lambda = 4)._1),
    "Spark k2" -> (df => SparkKHalfHop.run(spark, df, p)._1),
  )

  private def rejects(name: String, df: DataFrame, run: DataFrame => Vector[Convoy]): Unit = {
    val e = intercept[Exception](run(df))
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
    assert(causes.exists(_.isInstanceOf[IllegalArgumentException]), s"$name threw $e")
  }

  test("the clean frame mines the trio on every Spark miner") {
    for ((name, run) <- miners) assert(run(frame()) == Vector(Convoy(ObjSets.of(Seq(0, 1, 2)), 0, 11)), name)
  }

  test("a duplicate (t, oid) row of a non-candidate object fails every Spark miner") {
    for ((name, run) <- miners) rejects(name, frame((9, 0, 500.0, 0.0)), run)
  }

  test("a NaN coordinate fails every Spark miner") {
    for ((name, run) <- miners) rejects(name, frame((8, 0, Double.NaN, 0.0)), run)
  }

  // With k = 4 the benchmark points are 0, 2, 4, ..., so Spark k2's readers
  // never read t = 1 for object 9: only the one check over the whole frame
  // sees these rows.
  test("a duplicate (t, oid) row at a timestamp that is no benchmark point fails every Spark miner") {
    for ((name, run) <- miners) rejects(name, frame((9, 1, 500.0, 0.0)), run)
  }

  test("a NaN or infinite coordinate at a timestamp that is no benchmark point fails every Spark miner") {
    for ((name, run) <- miners; bad <- Seq((8, 1, Double.NaN, 0.0), (8, 1, 0.0, Double.NegativeInfinity)))
      rejects(s"$name, $bad", frame(bad), run)
  }
}
