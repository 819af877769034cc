package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.baseline.BruteForce
import repro.core.KHalfHop.Params
import repro.core.ObjSets.ObjSet
import repro.store.MemStore

/** Fully connected convoy validation: Figure 2 taxonomy scenarios and the
  * §4.6 example motivating the paper's correction to DCVal.
  */
class ValidateSpec extends AnyFunSuite {

  private def os(xs: Int*): ObjSet = ObjSets.of(xs)
  private def sel(store: MemStore): (Int, ObjSet) => Array[Pt] = (t, o) => store.select(t, o)

  /** Figure 2's x,y,z,n scenario: x,y,z pairwise-connected through outside
    * object n at t=4 only. Objects x,y,z = 1,2,3; n = 4. With eps = 1.5,
    * m = 3: at t != 4 x,y,z sit at 0,1,2 (directly connected); at t = 4
    * they sit at 0,1.4,2.8 with n at 0.7 — wait, simpler: x at 0, z at 2.6
    * (too far apart pairwise-chained via y)… Use the cleanest encoding:
    * x,y,z at 0, 1.4, 2.8 — chain x-y-z works without n (y is core with
    * {x,y,z}). To force dependence on n, put x,y,z at 0, 2.0, 4.0 (gaps
    * 2.0 > eps) and n at 1.0: NH(n) = {x,y,n} … n bridges x and y only.
    * Need a second bridge for z — so use two outside objects n1=4, n2=5 at
    * 1.0 and 3.0. Then {x,y,z} is a convoy (all in the big cluster) but not
    * FC (alone, x,y,z are mutually out of range).
    */
  private def xyzData = {
    val triples = Seq.newBuilder[(Int, Int, Double, Double)]
    for (t <- 1 to 5) {
      if (t == 4) {
        triples ++= TestData.line(t, 1 -> 0.0, 2 -> 2.0, 3 -> 4.0, 4 -> 1.0, 5 -> 3.0)
      } else {
        triples ++= TestData.line(t, 1 -> 0.0, 2 -> 1.0, 3 -> 2.0, 4 -> 30.0, 5 -> 40.0)
      }
    }
    TestData.fromTriples(triples.result())
  }

  test("Figure 2: {x,y,z}[1,5] is a convoy but not fully connected") {
    val data = xyzData
    val p = Params(3, 5, 1.5)
    val maxConvoys = BruteForce.maximalConvoys(data, p)
    assert(maxConvoys.exists(v => v.objs == os(1, 2, 3) && v.ts == 1 && v.te == 5))
    val fc = BruteForce.maximalFCConvoys(data, p)
    assert(!fc.exists(v => v.objs == os(1, 2, 3) && v.ts == 1 && v.te == 5))
  }

  test("Figure 2: validation rejects {x,y,z}[1,5] and finds no k=5 FC convoy") {
    val data = xyzData
    val store = new MemStore(data)
    val fc = Validate.fullyConnected(Seq(Convoy(os(1, 2, 3), 1, 5)), sel(store), 1.5, 3, 5, new PointCounter)
    assert(fc.isEmpty)
  }

  test("Figure 2: with k=3 validation recovers the FC sub-convoy {x,y,z}[1,3]") {
    // Restricted to {x,y,z}, t=4 breaks the cluster; maximal FC pieces are
    // [1,3] and [5,5]; with k=3 exactly [1,3] survives:
    val data = xyzData
    val store = new MemStore(data)
    val fc = Validate.fullyConnected(Seq(Convoy(os(1, 2, 3), 1, 5)), sel(store), 1.5, 3, 3, new PointCounter)
    assert(fc == Vector(Convoy(os(1, 2, 3), 1, 3)))
  }

  test("a genuinely FC convoy validates unchanged") {
    val triples = (0 to 6).flatMap(t => TestData.line(t, 1 -> 0.0, 2 -> 1.0, 3 -> 2.0))
    val store = new MemStore(TestData.fromTriples(triples))
    val v = Convoy(os(1, 2, 3), 0, 6)
    val fc = Validate.fullyConnected(Seq(v), sel(store), 1.5, 3, 4, new PointCounter)
    assert(fc == Vector(v))
  }

  /** §4.6 example: candidate (abcd,[1,6]) where object e was needed to
    * connect d to abc at timestamp 3. Single-pass validation would shrink
    * to (abcd,[1,6]) → restricted mining without e at t=3 splits d off —
    * the *recursion* must then re-validate (abc,[1,6]) and accept it.
    * Objects a,b,c,d,e = 1,2,3,4,5.
    */
  private def correctionData = {
    val triples = Seq.newBuilder[(Int, Int, Double, Double)]
    for (t <- 1 to 6) {
      if (t == 3) {
        // d connected to abc only through e: a,b,c at 0..2; e at 3.2; d at 4.4.
        triples ++= TestData.line(t, 1 -> 0.0, 2 -> 1.0, 3 -> 2.0, 4 -> 4.4, 5 -> 3.2)
      } else {
        // abcd (and e) directly chained.
        triples ++= TestData.line(t, 1 -> 0.0, 2 -> 1.0, 3 -> 2.0, 4 -> 3.0, 5 -> 4.0)
      }
    }
    TestData.fromTriples(triples.result())
  }

  test("§4.6 correction: recursive validation accepts (abc,[1,6]), rejects (abcd,[1,6])") {
    val data = correctionData
    val store = new MemStore(data)
    val p = Params(3, 6, 1.5)
    val fc = Validate.fullyConnected(Seq(Convoy(os(1, 2, 3, 4), 1, 6)), sel(store), 1.5, 3, 6, new PointCounter)
    // (abcd,[1,6]) is not FC (d needs e at t=3); recursion finds (abc,[1,6]).
    assert(fc == Vector(Convoy(os(1, 2, 3), 1, 6)))
    // Cross-check against the definitional oracle *on the restriction to
    // abcd* (in the full dataset {a,b,c,d,e} is itself FC and subsumes abc).
    val bfRestricted = BruteForce.maximalFCConvoys(TestData.restrictTo(data, os(1, 2, 3, 4)), p)
    assert(bfRestricted == Vector(Convoy(os(1, 2, 3), 1, 6)))
    val bfFull = BruteForce.maximalFCConvoys(data, p)
    assert(bfFull == Vector(Convoy(os(1, 2, 3, 4, 5), 1, 6)))
    assert(!bfFull.exists(v => v.objs == os(1, 2, 3, 4) && v.len >= 6))
  }

  test("single-pass (uncorrected) validation would emit a non-FC convoy here") {
    // Demonstrate why the recursion matters: restricted mining of
    // (abcde,[1,6]) returns (abcd*,…) pieces that are NOT all FC; accepting
    // them without re-validation is wrong.
    val data = correctionData
    val store = new MemStore(data)
    val m = 3; val k = 4; val eps = 1.5
    val v = Convoy(os(1, 2, 3, 4), 1, 6)
    def clustersAt(t: Int): Vector[ObjSet] =
      DBSCAN.cluster(store.select(t, v.objs), eps, m)
    val oncePass = repro.baseline.PCCD.maximalConvoys(v.ts to v.te, clustersAt, m, k)
    // The recursion's fixpoint must equal the definitional FC oracle on the
    // restriction to the candidate's objects.
    val fc = Validate.fullyConnected(Seq(v), sel(store), eps, m, k, new PointCounter)
    val bfRestricted = BruteForce.maximalFCConvoys(TestData.restrictTo(data, v.objs), KHalfHop.Params(m, k, eps))
    assert(ConvoySets.sorted(fc) == ConvoySets.sorted(bfRestricted))
    assert(oncePass.nonEmpty)
  }

  test("validation is memoised: duplicate candidates cost no extra reads") {
    val triples = (0 to 6).flatMap(t => TestData.line(t, 1 -> 0.0, 2 -> 1.0, 3 -> 2.0))
    val store = new MemStore(TestData.fromTriples(triples))
    val v = Convoy(os(1, 2, 3), 0, 6)
    val c1 = new PointCounter
    Validate.fullyConnected(Seq(v), sel(store), 1.5, 3, 4, c1)
    val c2 = new PointCounter
    Validate.fullyConnected(Seq(v, v, v), sel(store), 1.5, 3, 4, c2)
    assert(c1.n == c2.n)
  }

  test("candidate shorter than k is ignored") {
    val triples = (0 to 6).flatMap(t => TestData.line(t, 1 -> 0.0, 2 -> 1.0))
    val store = new MemStore(TestData.fromTriples(triples))
    val fc = Validate.fullyConnected(Seq(Convoy(os(1, 2), 0, 2)), sel(store), 1.5, 2, 5, new PointCounter)
    assert(fc.isEmpty)
  }
}
