package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.baseline.VCoDA
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.MemStore

/** Full-pipeline agreement between k/2-hop and VCoDA on every dataset
  * preset at multiple parameter settings (mid-size data — brute force is
  * infeasible here, VCoDA is the reference).
  */
class EndToEndSpec extends AnyFunSuite {

  private def check(data: repro.store.TrajData, p: Params): Unit = {
    val (k2, report) = KHalfHop.run(new MemStore(data), p)
    val vc = VCoDA.run(new MemStore(data), p, indexed = true)
    assert(k2 == vc.convoys, s"p=$p")
    assert(report.pointsProcessed <= vc.report.pointsProcessed)
  }

  private val cases = for {
    (name, data) <- Seq(
      "trucks" -> TrajGen.trucksLite(scale = 0.4),
      "tdrive" -> TrajGen.tdriveLite(scale = 0.2),
      "brinkhoff" -> TrajGen.brinkhoffLite(scale = 0.1),
    )
    k <- Seq(12, 50)
    m <- Seq(2, 3)
    eps <- Seq(15.0, 30.0)
  } yield (name, data, Params(m, k, eps))

  cases.foreach { case (name, data, p) =>
    test(s"$name: k/2-hop == VCoDA at m=${p.m}, k=${p.k}, eps=${p.eps}") {
      check(data, p)
    }
  }

  test("convoys found on every preset at its natural parameters") {
    assert(KHalfHop.run(new MemStore(TrajGen.trucksLite(0.4)), Params(3, 40, 25.0))._1.nonEmpty)
    assert(KHalfHop.run(new MemStore(TrajGen.tdriveLite(0.2)), Params(3, 60, 25.0))._1.nonEmpty)
    assert(KHalfHop.run(new MemStore(TrajGen.brinkhoffLite(0.1)), Params(3, 60, 25.0))._1.nonEmpty)
  }
}
