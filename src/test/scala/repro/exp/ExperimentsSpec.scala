package repro.exp

import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.core.KHalfHop.Params
import repro.store.TrajData

/** The experiment harness mines the dataset it is given. */
class ExperimentsSpec extends AnyFunSuite {

  test("runVCoDA mines each dataset afresh, also after one of the same shape") {
    val p = Params(3, 4, 1.5)
    val trio = TestData.trio(0)
    // The same 36 points over the same timestamps, 10 apart: no convoy.
    val spread = TrajData(trio.ts, trio.te, trio.byTime.map(_.map(pt => pt.copy(x = pt.x * 10))))
    for (indexed <- Seq(false, true)) {
      assert(Experiments.runVCoDA(trio, p, indexed)("val").out == 1, s"indexed=$indexed")
      assert(Experiments.runVCoDA(spread, p, indexed)("val").out == 0, s"indexed=$indexed")
    }
  }
}
