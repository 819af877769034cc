package convoybench

import org.scalatest.funsuite.AnyFunSuite

class HostSpeedSpec extends AnyFunSuite {

  test("a time read at reference speed is left as it is") {
    assert(CpuProbe.scale(CpuProbe.referenceMs) == 1.0)
    assert(CpuProbe.scale(2 * CpuProbe.referenceMs) == 0.5)
  }

  test("the CPU probe times some work and allocates nothing per run") {
    CpuProbe.warmUp()
    val mx = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val id = Thread.currentThread().getId
    val before = mx.getThreadAllocatedBytes(id)
    val ms = (1 to 20).map(_ => CpuProbe.probeMs())
    val allocated = mx.getThreadAllocatedBytes(id) - before
    assert(ms.forall(_ > 0))
    // The Vector of readings and boxing are the only allocations.
    assert(allocated < (64 << 10), s"$allocated bytes")
  }

  test("each store kind has its probe: DuckDB round trips for rdbms, CPU for the rest") {
    assert(StoreKind.File.queryProbe() eq CpuProbe)
    assert(StoreKind.Lsm.queryProbe() eq CpuProbe)
    val duck = StoreKind.Rdbms.queryProbe()
    try {
      assert(duck.isInstanceOf[DuckDbProbe])
      assert((1 to 3).map(_ => duck.probeMs()).forall(_ > 0))
    } finally duck.close()
  }
}
