package convoybench

import scala.collection.mutable.ArrayBuffer

import repro.core.{Convoy, ConvoySets, DBSCAN, Extend, HWMT, Merge, ObjSets, PointCounter, Pt, Validate}
import repro.core.KHalfHop.Params
import repro.core.ObjSets.ObjSet
import repro.store.TrajectoryStore

/** Algorithm 1 re-composed from the public stage functions of `repro.core`,
  * in the same order and with the same arguments as `KHalfHop.run`, with a
  * span around each phase and around each benchmark-phase DBSCAN call.
  * Store calls become spans when `store` is a [[TracingStore]] on the same
  * tracer; their parent is the enclosing phase.
  *
  * The benchmark checks on every traced query that this returns the same
  * convoys and `pointsProcessed` as `KHalfHop.run`, so the two cannot drift
  * apart unnoticed.
  */
object TracedPipeline {

  /** Cardinalities along the pipeline; `pairsTried` counts the benchmark
    * cluster pairs intersected while forming candidates.
    */
  final case class Cards(
      benchmarkClusters: Long,
      pairsTried: Long,
      candidateClusters: Long,
      spanning: Long,
      maximalSpanning: Long,
      preValidation: Long,
      convoys: Long,
  )

  final case class Result(convoys: Vector[Convoy], pointsProcessed: Long, cards: Cards)

  /** Mine `p` over `store` as one new traced query of `tracer`. */
  def run(store: TrajectoryStore, p: Params, tracer: Tracer): Result = {
    tracer.beginQuery()
    tracer.span(Tracer.Query)(mine(store, p, tracer))
  }

  private def mine(store: TrajectoryStore, p: Params, tracer: Tracer): Result = {
    val counter = new PointCounter
    val h = p.k / 2
    val select: (Int, ObjSet) => Array[Pt] = (t, objs) => store.select(t, objs)

    val bps = (store.ts to store.te by h).toVector
    val benchClusters = tracer.span(Tracer.Benchmark) {
      bps.map { b =>
        val pts = store.snapshot(b)
        counter.add(pts.length)
        tracer.spanCounting[Vector[ObjSet]](Tracer.Dbscan, _ => pts.length.toLong)(DBSCAN.cluster(pts, p.eps, p.m))
      }
    }

    var pairsTried = 0L
    val cc = tracer.span(Tracer.Candidates) {
      (0 until bps.length - 1).toVector.map { i =>
        pairsTried += benchClusters(i).length.toLong * benchClusters(i + 1).length
        for {
          a <- benchClusters(i)
          b <- benchClusters(i + 1)
          o = ObjSets.intersect(a, b)
          if o.length >= p.m
        } yield o
      }
    }

    val spanning = tracer.span(Tracer.Hwmt) {
      cc.zipWithIndex.map { case (sets, i) =>
        if (sets.isEmpty) Vector.empty[Convoy]
        else HWMT.mineWindow(select, bps(i), bps(i + 1), sets, p.eps, p.m, counter)
      }
    }

    val vm = tracer.span(Tracer.Merge)(Merge.mergeSpanning(spanning, p.m))

    val rightClosed = tracer.span(Tracer.ExtendRight) {
      val acc = ArrayBuffer.empty[Convoy]
      vm.foreach(v => Extend.extendOne(select, v, store.te, forward = true, p.eps, p.m, counter, acc))
      acc.toVector
    }
    val ve = tracer.span(Tracer.ExtendLeft) {
      val acc = ArrayBuffer.empty[Convoy]
      rightClosed.foreach(v => Extend.extendOne(select, v, store.ts, forward = false, p.eps, p.m, counter, acc))
      ConvoySets.maximal(acc.filter(_.len >= p.k))
    }

    val vfc = tracer.span(Tracer.Validate)(Validate.fullyConnected(ve, select, p.eps, p.m, p.k, counter))

    Result(
      ConvoySets.sorted(vfc),
      counter.n,
      Cards(
        benchmarkClusters = benchClusters.map(_.length.toLong).sum,
        pairsTried = pairsTried,
        candidateClusters = cc.map(_.length.toLong).sum,
        spanning = spanning.map(_.length.toLong).sum,
        maximalSpanning = vm.length,
        preValidation = ve.length,
        convoys = vfc.length,
      ),
    )
  }
}
