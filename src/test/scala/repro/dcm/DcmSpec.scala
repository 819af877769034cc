package repro.dcm

import repro.{SparkSpec, TestData}
import repro.baseline.PCCD
import repro.core.{ConvoySets, DBSCAN}
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.TrajData

/** DCM (temporal partitions + boundary merge) must equal the sequential
  * miner regardless of the partition length lambda.
  */
class DcmSpec extends SparkSpec {

  private def pccdOn(data: TrajData, p: Params) = {
    val clusters = data.byTime.zipWithIndex.map { case (pts, i) =>
      (data.ts + i) -> DBSCAN.cluster(pts, p.eps, p.m)
    }.toMap
    ConvoySets.sorted(PCCD.maximalConvoys(data.ts to data.te, clusters, p.m, p.k))
  }

  test("DCM equals PCCD for several lambda on random walks") {
    for (seed <- 1L to 4L; lambda <- Seq(3, 5, 10, 40)) {
      val data = TestData.randomTiny(seed, 8, 25)
      val p = Params(2, 4, TestData.GridEps)
      val (dcm, _) = DCM.run(spark, TrajGen.toDF(spark, data), p, lambda)
      assert(dcm == pccdOn(data, p), s"seed=$seed lambda=$lambda")
    }
  }

  test("DCM equals PCCD on trucksLite") {
    val data = TrajGen.trucksLite(scale = 0.3)
    val p = Params(3, 40, 25.0)
    for (lambda <- Seq(25, 100)) {
      val (dcm, report) = DCM.run(spark, TrajGen.toDF(spark, data), p, lambda)
      assert(dcm == pccdOn(data, p), s"lambda=$lambda")
      assert(report.phases.map(_.name) == Vector("local", "merge") && report("merge").out == dcm.length, s"lambda=$lambda")
      assert(report.pointsProcessed == data.totalPoints, s"lambda=$lambda: the partitions cluster every point")
    }
  }

  test("lambda larger than the dataset degenerates to a single partition") {
    val data = TestData.randomTiny(9, 6, 15)
    val p = Params(2, 3, TestData.GridEps)
    val (dcm, _) = DCM.run(spark, TrajGen.toDF(spark, data), p, 1000)
    assert(dcm == pccdOn(data, p))
  }

  test("a convoy crossing every partition boundary is reassembled") {
    // Objects 0,1 together for all 20 timestamps; lambda=4 → 5 partitions.
    val triples = (0 until 20).flatMap(t => TestData.line(t, 0 -> 0.0, 1 -> 1.0, 5 -> (100.0 + 10 * t)))
    val data = TestData.fromTriples(triples)
    val p = Params(2, 10, 1.5)
    val (dcm, _) = DCM.run(spark, TrajGen.toDF(spark, data), p, 4)
    assert(dcm == Vector(repro.core.Convoy(repro.core.ObjSets.of(Seq(0, 1)), 0, 19)))
  }

  test("partitions near the ends of the Int range keep the whole convoy") {
    for (t0 <- Seq(Int.MaxValue - 11, Int.MinValue); lambda <- Seq(4, 5, 7)) {
      val (dcm, _) = DCM.run(spark, TrajGen.toDF(spark, TestData.trio(0, t0)), Params(3, 4, 1.5), lambda)
      assert(dcm == Vector(repro.core.Convoy(repro.core.ObjSets.of(Seq(0, 1, 2)), t0, t0 + 11)), s"t0=$t0 lambda=$lambda")
    }
  }

  test("DCM returns no convoys on an empty frame") {
    val (dcm, report) = DCM.run(spark, TrajGen.toDF(spark, TrajData(0, -1, Array.empty)), Params(2, 3, 1.5), 4)
    assert(dcm.isEmpty)
    assert(report.phases.map(ph => (ph.name, ph.out)) == Vector("local" -> 0L, "merge" -> 0L))
    assert(report.pointsProcessed == 0)
  }

  test("DCM rejects lambda < 2") {
    val data = TestData.randomTiny(1, 4, 8)
    assertThrows[IllegalArgumentException] {
      DCM.run(spark, TrajGen.toDF(spark, data), Params(2, 3, TestData.GridEps), 1)
    }
  }
}
