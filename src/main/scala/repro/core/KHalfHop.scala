package repro.core

import scala.collection.mutable

import ObjSets.ObjSet
import repro.store.TrajectoryStore

/** The k/2-hop convoy mining algorithm (Algorithm 1): the paper's primary
  * contribution. Finds all maximal fully connected (m,eps)-convoys of
  * length ≥ k while clustering only (a) the benchmark-point snapshots and
  * (b) the few objects that survive candidate pruning — in most datasets
  * >99% of points are never touched.
  *
  * Pipeline: benchmark clustering → candidate clusters → HWMT per
  * hop-window → DCM merge → right/left extension → FC validation. Each
  * phase is timed and the points fed to DBSCAN are counted for the pruning
  * statistics of Table 5. The Spark driver (`repro.spark.SparkKHalfHop`)
  * reuses the benchmark-point, candidate and finish stages below and only
  * changes where the points come from.
  */
object KHalfHop {

  /** Convoy mining parameters (user-facing, not data-dependent — the
    * paper's headline claim versus CuTS/DCM).
    */
  final case class Params(m: Int, k: Int, eps: Double) {
    require(m >= 2, "convoy size m must be >= 2")
    require(k >= 2, "convoy length k must be >= 2 (k/2-hop needs hop >= 1)")
    require(eps > 0, "eps must be positive")
  }

  /** Wall-clock milliseconds per phase (Figure 8i). */
  final case class Phases(
      benchmarkMs: Long,
      candidateMs: Long,
      hwmtMs: Long,
      mergeMs: Long,
      extendRightMs: Long,
      extendLeftMs: Long,
      validateMs: Long,
  ) {
    def totalMs: Long =
      benchmarkMs + candidateMs + hwmtMs + mergeMs + extendRightMs + extendLeftMs + validateMs
  }

  /** Run statistics: pruning performance (Table 5), pipeline cardinalities
    * (Figure 8j) and phase timings (Figure 8i).
    */
  final case class Stats(
      totalPoints: Long,
      pointsProcessed: Long,
      benchmarkPoints: Int,
      benchmarkClusters: Int,
      candidateClusters: Int,
      spanningConvoys: Int,
      maximalSpanning: Int,
      preValidationConvoys: Int,
      convoys: Int,
      phases: Phases,
  ) {
    def pruningPct: Double =
      if (totalPoints == 0) 0.0 else 100.0 * (totalPoints - pointsProcessed) / totalPoints
  }

  /** Benchmark points b_i = ts + i*floor(k/2) over [ts, te] (Lemma 3). */
  def benchmarkPoints(ts: Int, te: Int, k: Int): Vector[Int] = (ts to te by (k / 2)).toVector

  /** Candidate clusters per hop-window (Lemma 5): the intersections of the
    * cluster sets at adjacent benchmark points that keep at least m objects.
    * `benchClusters(i)` holds the clusters at benchmark point b_i.
    */
  def candidates(benchClusters: Vector[Vector[ObjSet]], m: Int): Vector[Vector[ObjSet]] =
    (0 until benchClusters.length - 1).toVector.map { i =>
      for {
        a <- benchClusters(i)
        b <- benchClusters(i + 1)
        o = ObjSets.intersect(a, b)
        if o.length >= m
      } yield o
    }

  /** Output of [[finish]]: the extended candidates of length >= k, the
    * sorted maximal FC convoys, and the wall time of each phase.
    */
  final case class Finished(
      preValidation: Vector[Convoy],
      convoys: Vector[Convoy],
      extendRightMs: Long,
      extendLeftMs: Long,
      validateMs: Long,
  )

  /** Steps 5–6 of Algorithm 1 on the maximal spanning convoys `vm`: extend
    * right to `te`, then left to `ts`, keep the maximal candidates of length
    * >= k, and validate them to fully connected convoys.
    */
  def finish(
      select: (Int, ObjSet) => Array[Pt],
      ts: Int,
      te: Int,
      vm: Vector[Convoy],
      p: Params,
      counter: PointCounter,
  ): Finished = {
    val (rightClosed, extendRightMs) = timed {
      val acc = mutable.ArrayBuffer.empty[Convoy]
      vm.foreach(v => Extend.extendOne(select, v, te, forward = true, p.eps, p.m, counter, acc))
      acc.toVector
    }
    val (ve, extendLeftMs) = timed {
      val acc = mutable.ArrayBuffer.empty[Convoy]
      rightClosed.foreach(v => Extend.extendOne(select, v, ts, forward = false, p.eps, p.m, counter, acc))
      ConvoySets.maximal(acc.filter(_.len >= p.k))
    }
    val (vfc, validateMs) = timed(Validate.fullyConnected(ve, select, p.eps, p.m, p.k, counter))
    Finished(ve, ConvoySets.sorted(vfc), extendRightMs, extendLeftMs, validateMs)
  }

  private def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1000000L)
  }

  /** Mine all maximal FC convoys of `store` and report statistics. */
  def run(store: TrajectoryStore, p: Params): (Vector[Convoy], Stats) = {
    val counter = new PointCounter
    val select: (Int, ObjSet) => Array[Pt] = (t, objs) => store.select(t, objs)

    // Step 1: cluster the benchmark points.
    val bps = benchmarkPoints(store.ts, store.te, p.k)
    val (benchClusters, benchmarkMs) = timed {
      bps.map { b =>
        val pts = store.snapshot(b)
        counter.add(pts.length)
        DBSCAN.cluster(pts, p.eps, p.m)
      }
    }

    // Step 2: candidate clusters per hop-window.
    val (cc, candidateMs) = timed(candidates(benchClusters, p.m))

    // Step 3: HWMT — 1st-order spanning convoys per hop-window.
    val (spanning, hwmtMs) = timed {
      cc.zipWithIndex.map { case (sets, i) =>
        if (sets.isEmpty) Vector.empty[Convoy]
        else HWMT.mineWindow(select, bps(i), bps(i + 1), sets, p.eps, p.m, counter)
      }
    }

    // Step 4: merge into maximal spanning convoys.
    val (vm, mergeMs) = timed(Merge.mergeSpanning(spanning, p.m))

    // Steps 5-6: extend, k filter, validate.
    val done = finish(select, store.ts, store.te, vm, p, counter)

    val stats = Stats(
      totalPoints = store.totalPoints,
      pointsProcessed = counter.n,
      benchmarkPoints = bps.length,
      benchmarkClusters = benchClusters.map(_.length).sum,
      candidateClusters = cc.map(_.length).sum,
      spanningConvoys = spanning.map(_.length).sum,
      maximalSpanning = vm.length,
      preValidationConvoys = done.preValidation.length,
      convoys = done.convoys.length,
      phases = Phases(benchmarkMs, candidateMs, hwmtMs, mergeMs, done.extendRightMs, done.extendLeftMs,
        done.validateMs),
    )
    (done.convoys, stats)
  }
}
