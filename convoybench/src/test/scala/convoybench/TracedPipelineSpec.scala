package convoybench

import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite

import repro.core.KHalfHop
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.{MemStore, TrajData}

/** The traced re-composition of Algorithm 1 must not drift from
  * `KHalfHop.run`: same convoys, same `pointsProcessed`.
  */
class TracedPipelineSpec extends AnyFunSuite {

  private def sameAsKHalfHop(data: TrajData, q: Params): Unit = {
    val store = new MemStore(data)
    val (convoys, stats) = KHalfHop.run(store, q)
    val tracer = new Tracer
    val traced = TracedPipeline.run(new TracingStore(store, tracer), q, tracer)
    assert(traced.convoys == convoys, q)
    assert(traced.pointsProcessed == stats.pointsProcessed, q)
    assert(traced.cards.convoys == stats.convoys && traced.cards.preValidation == stats.preValidationConvoys, q)
    assert(traced.cards.candidateClusters == stats.candidateClusters && traced.cards.spanning == stats.spanningConvoys, q)
  }

  test("trucksLite at k=2 and k=3: hop 1, no interior timestamps") {
    val data = TrajGen.trucksLite(0.3)
    for (k <- Seq(2, 3); eps <- Seq(25.0, 50.0)) sameAsKHalfHop(data, Params(3, k, eps))
  }

  // The stored reference answers of the default seeds double as a check on
  // `KHalfHop.run` itself.
  private val benchDir = Paths.get(sys.props.getOrElse("convoybench.dir", "."))

  for ((ds, ws) <- Workloads.all.groupBy(_.dataset)) test(s"every query of ${ws.map(_.name).mkString(", ")}") {
    val data = ds.gen(ds.defaultSeed)
    val refFile = References.path(benchDir, ds, ds.defaultSeed)
    assert(Files.exists(refFile), refFile)
    val refs = References.load(refFile)
    for (q <- ws.flatMap(_.queries).distinct) {
      sameAsKHalfHop(data, q)
      assert(Main.matches(KHalfHop.run(new MemStore(data), q)._1, refs(q)), q)
    }
  }

  test("reference files round-trip") {
    val data = TrajGen.trucksLite(0.3)
    val answers = References.mine(data, Seq(Params(3, 10, 25.0), Params(3, 400, 25.0)))
    val file = Files.createTempFile("refs", ".txt")
    try {
      References.write(file, answers)
      assert(References.load(file) == answers)
    } finally Files.delete(file)
  }
}
