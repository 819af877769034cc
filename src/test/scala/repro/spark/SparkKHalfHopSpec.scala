package repro.spark

import repro.{SparkSpec, TestData}
import repro.core.{KHalfHop, RunReport}
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.{MemStore, TrajData}

/** The distributed k/2-hop must produce exactly the sequential results, and
  * its pruning behaviour must survive distribution.
  */
class SparkKHalfHopSpec extends SparkSpec {

  private def compare(data: TrajData, p: Params): Unit = {
    val (seq, seqReport) = KHalfHop.run(new MemStore(data), p)
    val df = TrajGen.toDF(spark, data)
    val (dist, report) = SparkKHalfHop.run(spark, df, p)
    assert(dist == seq, s"spark != sequential for $p")
    assert(report.pointsProcessed == seqReport.pointsProcessed, s"pointsProcessed for $p")
    def outs(r: RunReport) = r.phases.map(ph => (ph.name, ph.out))
    assert(outs(report) == outs(seqReport), s"phases for $p")
  }

  test("matches sequential k/2-hop on trucksLite across k") {
    val data = TrajGen.trucksLite(scale = 0.3)
    for (k <- Seq(10, 30, 61)) compare(data, Params(3, k, 25.0))
  }

  test("matches sequential k/2-hop on tdriveLite") {
    compare(TrajGen.tdriveLite(scale = 0.15), Params(3, 40, 25.0))
  }

  test("matches sequential on adversarial random walks (m=2)") {
    for (seed <- 1L to 6L) compare(TestData.randomTiny(seed, 8, 30), Params(2, 4, TestData.GridEps))
  }

  test("matches sequential with k=2 (benchmark at every timestamp)") {
    compare(TestData.randomTiny(3, 8, 20), Params(2, 2, TestData.GridEps))
  }

  test("matches sequential on a convoy with an extreme or negative oid") {
    for (oid <- Seq(Int.MinValue, -5, 0)) compare(TestData.trio(oid), Params(3, 4, 1.5))
  }

  test("matches sequential on an empty frame") {
    compare(TrajData(0, -1, Array.empty), Params(3, 4, 1.5))
  }

  test("empty result on convoy-free data") {
    val data = TrajGen.generate(TrajGen.Config(
      nObjects = 20, nTs = 40, groups = Seq.empty, world = 100000.0, seed = 21))
    val df = TrajGen.toDF(spark, data)
    val (convoys, report) = SparkKHalfHop.run(spark, df, Params(3, 10, 25.0))
    assert(convoys.isEmpty)
    // Pruning: little beyond the benchmark snapshots was clustered.
    assert(report.pointsProcessed < data.totalPoints / 2)
  }

  test("distributed pruning reads far less than the dataset on sparse convoy data") {
    val data = TrajGen.tdriveLite(scale = 0.15)
    val df = TrajGen.toDF(spark, data)
    val (_, report) = SparkKHalfHop.run(spark, df, Params(3, 60, 25.0))
    assert(report.pointsProcessed < data.totalPoints / 2,
      s"expected pruning, clustered ${report.pointsProcessed} of ${data.totalPoints}")
  }
}
