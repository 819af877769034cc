package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.baseline.{BruteForce, PCCD, VCoDA}
import repro.core.KHalfHop.Params
import repro.store.MemStore

/** The correctness hammer: on dozens of adversarial tiny datasets, the full
  * k/2-hop pipeline, the VCoDA baselines and the brute-force definitional
  * oracle must produce *identical* maximal FC convoy sets, and PCCD must
  * match the brute-force maximal (partially connected) convoy set.
  */
class EquivalenceSpec extends AnyFunSuite {

  private def check(seed: Long, p: Params, nObj: Int = 8, nTs: Int = 30): Unit = {
    val data = TestData.randomTiny(seed, nObj, nTs)
    val bfFC = ConvoySets.sorted(BruteForce.maximalFCConvoys(data, p))
    val bfMax = ConvoySets.sorted(BruteForce.maximalConvoys(data, p))

    val storeK2 = new MemStore(data)
    val (k2, _) = KHalfHop.run(storeK2, p)
    assert(k2 == bfFC, s"k/2-hop != brute force FC (seed=$seed, p=$p)")

    val storeV = new MemStore(data)
    val vcoda = VCoDA.run(storeV, p, indexed = true)
    assert(vcoda.convoys == bfFC, s"VCoDA* != brute force FC (seed=$seed, p=$p)")

    val clusters = data.byTime.zipWithIndex.map { case (pts, i) =>
      (data.ts + i) -> DBSCAN.cluster(pts, p.eps, p.m)
    }.toMap
    val pccd = ConvoySets.sorted(PCCD.maximalConvoys(data.ts to data.te, clusters, p.m, p.k))
    assert(pccd == bfMax, s"PCCD != brute force maximal convoys (seed=$seed, p=$p)")
  }

  private val eps = TestData.GridEps

  for (seed <- 1L to 12L)
    test(s"random walk seed=$seed, m=2, k=4") { check(seed, Params(2, 4, eps)) }

  for (seed <- 1L to 8L)
    test(s"random walk seed=$seed, m=3, k=3") { check(seed, Params(3, 3, eps)) }

  for (seed <- 20L to 25L)
    test(s"random walk seed=$seed, m=2, k=6") { check(seed, Params(2, 6, eps)) }

  for (seed <- 30L to 34L)
    test(s"random walk seed=$seed, m=2, k=2 (hop=1, no interior timestamps)") {
      check(seed, Params(2, 2, eps))
    }

  for (seed <- 40L to 44L)
    test(s"random walk seed=$seed, m=2, k=5 (odd k)") { check(seed, Params(2, 5, eps)) }

  for (seed <- 50L to 53L)
    test(s"denser walk seed=$seed, m=3, k=4, 10 objects") {
      check(seed, Params(3, 4, eps), nObj = 10, nTs = 24)
    }

  for (seed <- 60L to 63L)
    test(s"long walk seed=$seed, m=2, k=7, 6 objects x 50 ts") {
      check(seed, Params(2, 7, eps), nObj = 6, nTs = 50)
    }

  for (seed <- 70L to 74L)
    test(s"wider grid seed=$seed, m=2, k=3, 12 objects") {
      check(seed, Params(2, 3, eps), nObj = 12, nTs = 20)
    }

  for (seed <- 80L to 84L)
    test(s"sparse walk seed=$seed, m=3, k=6") {
      check(seed, Params(3, 6, eps), nObj = 9, nTs = 36)
    }

  for (seed <- 90L to 94L)
    test(s"k=8 long-span seed=$seed") {
      check(seed, Params(2, 8, eps), nObj = 7, nTs = 44)
    }

  test("dataset shorter than k yields no convoys") {
    val data = TestData.randomTiny(99, 6, 5)
    val (res, _) = KHalfHop.run(new MemStore(data), Params(2, 8, eps))
    assert(res.isEmpty)
  }

  test("planted convoy dataset: k/2-hop equals VCoDA on trucksLite at multiple k") {
    val data = repro.data.TrajGen.trucksLite(scale = 0.5)
    for (k <- Seq(10, 30, 60)) {
      val p = Params(3, k, 25.0)
      val (k2, _) = KHalfHop.run(new MemStore(data), p)
      val vc = VCoDA.run(new MemStore(data), p, indexed = true)
      assert(k2 == vc.convoys, s"k=$k mismatch")
    }
  }

  test("planted groups are actually discovered on trucksLite") {
    val data = repro.data.TrajGen.trucksLite(scale = 0.5)
    val (k2, _) = KHalfHop.run(new MemStore(data), Params(3, 40, 25.0))
    assert(k2.nonEmpty, "expected at least one planted convoy to survive")
    assert(k2.forall(_.len >= 40))
    assert(k2.forall(_.objs.length >= 3))
  }
}
