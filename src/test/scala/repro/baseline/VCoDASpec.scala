package repro.baseline

import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.MemStore

/** VCoDA / VCoDA* baseline pipeline behaviour. */
class VCoDASpec extends AnyFunSuite {

  test("VCoDA and VCoDA* produce identical convoys (index is a pure optimization)") {
    for (seed <- 1L to 5L) {
      val data = TestData.randomTiny(seed, 8, 25)
      val p = Params(2, 4, TestData.GridEps)
      val naive = VCoDA.run(new MemStore(data), p, indexed = false)
      val star = VCoDA.run(new MemStore(data), p, indexed = true)
      assert(naive.convoys == star.convoys, s"seed=$seed")
      assert(naive.report.preValidationConvoys == star.report.preValidationConvoys)
    }
  }

  test("VCoDA processes the whole dataset (no pruning, by design)") {
    val data = TrajGen.trucksLite(scale = 0.3)
    val r = VCoDA.run(new MemStore(data), Params(3, 30, 25.0), indexed = true)
    assert(r.report.pointsProcessed >= data.totalPoints)
  }

  test("k/2-hop processes far fewer points than VCoDA on the same data") {
    val data = TrajGen.tdriveLite(scale = 0.3)
    val p = Params(3, 60, 25.0)
    val vcoda = VCoDA.run(new MemStore(data), p, indexed = true)
    val (_, k2) = repro.core.KHalfHop.run(new MemStore(data), p)
    assert(k2.pointsProcessed < vcoda.report.pointsProcessed / 4,
      s"k2=${k2.pointsProcessed} vcoda=${vcoda.report.pointsProcessed}")
  }

  test("pre-validation convoy count is reported and >= final convoy count") {
    val data = TrajGen.trucksLite(scale = 0.5)
    val r = VCoDA.run(new MemStore(data), Params(3, 40, 25.0), indexed = true)
    assert(r.report.preValidationConvoys == r.report("mine").out)
    assert(r.report.preValidationConvoys >= r.convoys.length)
  }

  test("phase timings are populated") {
    val data = TrajGen.trucksLite(scale = 0.3)
    val r = VCoDA.run(new MemStore(data), Params(3, 30, 25.0), indexed = true)
    assert(r.report.phases.map(_.name) == Vector("cluster", "mine", "val"))
    assert(r.report.phases.forall(_.us >= 0))
    assert(r.report.convoys == r.convoys.length)
  }

  test("empty-ish dataset (all noise) yields no convoys") {
    val data = TrajGen.generate(TrajGen.Config(
      nObjects = 10, nTs = 30, groups = Seq.empty, world = 500000.0, seed = 3))
    val r = VCoDA.run(new MemStore(data), Params(3, 5, 25.0), indexed = true)
    assert(r.convoys.isEmpty)
  }
}
