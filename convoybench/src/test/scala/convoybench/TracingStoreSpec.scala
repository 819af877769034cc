package convoybench

import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import repro.core.ObjSets
import repro.data.TrajGen
import repro.store.{FileStore, LsmStore, RdbmsStore, TrajectoryStore}

/** The tracing decorator must be invisible: same arrays, same counters. */
class TracingStoreSpec extends AnyFunSuite {
  private val data = TrajGen.trucksLite(0.3)

  private val stores: Seq[(String, () => TrajectoryStore)] = Seq(
    "file" -> (() => FileStore.create(data, Files.createTempFile("tracing", ".bin"))),
    "rdbms" -> (() => RdbmsStore.create(data)),
    "lsm" -> (() => LsmStore.create(data, Files.createTempDirectory("tracing"), flushThreshold = 512, maxRuns = 3)),
  )

  private val oidSets = Seq(ObjSets.of(Seq(0, 3, 5, 11, 17)), ObjSets.of(0 until 16), ObjSets.empty, ObjSets.of(Seq(999)))

  for ((name, make) <- stores) test(s"$name: traced reads equal bare reads, with one span per call") {
    val bare = make()
    val under = make()
    val tracer = new Tracer
    val traced = new TracingStore(under, tracer)
    try {
      assert((traced.ts, traced.te, traced.totalPoints) == ((bare.ts, bare.te, bare.totalPoints)))
      bare.resetCounters(); traced.resetCounters()
      var calls = 0
      for (t <- (data.ts - 1) to (data.te + 1)) {
        assert(traced.snapshot(t).toSeq == bare.snapshot(t).toSeq, s"snapshot($t)")
        calls += 1
        if (t % 7 == 0) oidSets.foreach { oids =>
          assert(traced.select(t, oids).toSeq == bare.select(t, oids).toSeq, s"select($t, $oids)")
          calls += 1
        }
      }
      assert(traced.pointsRead == bare.pointsRead)
      assert(tracer.size == calls)
      val returned = (0 until tracer.size).map(tracer.pointsOf).sum
      val snapshotPoints = (data.ts to data.te).map(t => bare.snapshot(t).length.toLong).sum
      assert(returned >= snapshotPoints)
    } finally { bare.close(); under.close() }
  }

  test("spans nest under the open span and carry the query id") {
    val tracer = new Tracer
    tracer.beginQuery()
    tracer.span(Tracer.Query) {
      tracer.span(Tracer.Hwmt)(tracer.spanCounting[Int](Tracer.Select, _.toLong)(42))
    }
    // Spans are logged as they end: select, hwmt, query.
    assert((0 until 3).map(tracer.kind) == Seq(Tracer.Select, Tracer.Hwmt, Tracer.Query))
    assert(tracer.parent(0) == tracer.id(1) && tracer.parent(1) == tracer.id(2) && tracer.parent(2) == -1)
    assert((0 until 3).forall(tracer.queryOf(_) == 0))
    assert(tracer.pointsOf(0) == 42)
  }
}
