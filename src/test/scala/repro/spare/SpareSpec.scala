package repro.spare

import repro.{SparkSpec, TestData}
import repro.baseline.{BruteForce, PCCD}
import repro.core.{ConvoySets, DBSCAN, ObjSets}
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.TrajData

/** SPARE (stage 1 + star partitioning + apriori) must mine exactly the
  * maximal partially-connected convoys — the same semantics as PCCD and the
  * brute-force oracle.
  */
class SpareSpec extends SparkSpec {

  private def pccdOn(data: TrajData, p: Params) = {
    val clusters = data.byTime.zipWithIndex.map { case (pts, i) =>
      (data.ts + i) -> DBSCAN.cluster(pts, p.eps, p.m)
    }.toMap
    ConvoySets.sorted(PCCD.maximalConvoys(data.ts to data.te, clusters, p.m, p.k))
  }

  test("SPARE equals PCCD and brute force on adversarial random walks") {
    for (seed <- 1L to 6L) {
      val data = TestData.randomTiny(seed, 8, 25)
      val p = Params(2, 4, TestData.GridEps)
      val (spare, _) = SPARE.run(spark, TrajGen.toDF(spark, data), p)
      assert(spare == pccdOn(data, p), s"seed=$seed vs PCCD")
      assert(spare == ConvoySets.sorted(BruteForce.maximalConvoys(data, p)), s"seed=$seed vs BF")
    }
  }

  test("SPARE equals PCCD with m=3") {
    for (seed <- 10L to 13L) {
      val data = TestData.randomTiny(seed, 9, 20)
      val p = Params(3, 3, TestData.GridEps)
      val (spare, _) = SPARE.run(spark, TrajGen.toDF(spark, data), p)
      assert(spare == pccdOn(data, p), s"seed=$seed")
    }
  }

  test("SPARE finds the planted convoy on trucksLite") {
    val data = TrajGen.trucksLite(scale = 0.3)
    val p = Params(3, 40, 25.0)
    val (spare, report) = SPARE.run(spark, TrajGen.toDF(spark, data), p)
    assert(spare == pccdOn(data, p))
    assert(spare.nonEmpty)
    assert(report.phases.map(ph => (ph.name, ph.out)) ==
      Vector("stage1" -> data.byTime.map(pts => DBSCAN.cluster(pts, p.eps, p.m).length.toLong).sum, "stage2" -> spare.length.toLong))
    assert(report.pointsProcessed == data.totalPoints, "stage 1 clusters every point")
  }

  test("SPARE on convoy-free data returns nothing") {
    val data = TrajGen.generate(TrajGen.Config(
      nObjects = 15, nTs = 30, groups = Seq.empty, world = 100000.0, seed = 31))
    val (spare, _) = SPARE.run(spark, TrajGen.toDF(spark, data), Params(3, 5, 25.0))
    assert(spare.isEmpty)
  }

  test("SPARE returns no convoys on an empty frame") {
    val (spare, report) = SPARE.run(spark, TrajGen.toDF(spark, TrajData(0, -1, Array.empty)), Params(2, 3, 1.5))
    assert(spare.isEmpty)
    assert(report.phases.map(ph => (ph.name, ph.out)) == Vector("stage1" -> 0L, "stage2" -> 0L))
    assert(report.pointsProcessed == 0)
  }

  test("star enumerator: pairwise times within a star reconstruct whole-set convoys") {
    // star = 1; neighbors 2 and 3 co-clustered with 1 on [0,5]; neighbor 4
    // only on [0,2]. m=3, k=3: expect {1,2,3}[0,5] and {1,2,3,4}[0,2].
    val neighbors = Map(
      2 -> ObjSets.of(Seq(0, 1, 2, 3, 4, 5)),
      3 -> ObjSets.of(Seq(0, 1, 2, 3, 4, 5)),
      4 -> ObjSets.of(Seq(0, 1, 2)),
    )
    val res = ConvoySets.maximal(SPARE.enumerateStar(1, neighbors, m = 3, k = 3))
    assert(res.toSet == Set(
      repro.core.Convoy(ObjSets.of(Seq(1, 2, 3)), 0, 5),
      repro.core.Convoy(ObjSets.of(Seq(1, 2, 3, 4)), 0, 2),
    ))
  }

  test("star enumerator prunes runs shorter than k") {
    val neighbors = Map(2 -> ObjSets.of(Seq(0, 1, 5, 6)), 3 -> ObjSets.of(Seq(0, 1, 5, 6)))
    assert(SPARE.enumerateStar(1, neighbors, m = 3, k = 3).isEmpty)
    assert(SPARE.enumerateStar(1, neighbors, m = 3, k = 2).nonEmpty)
  }
}
