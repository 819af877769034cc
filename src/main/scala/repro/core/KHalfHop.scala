package repro.core

import scala.collection.mutable

import ObjSets.ObjSet
import repro.store.{PointCache, TrajectoryStore}

/** The k/2-hop convoy mining algorithm (Algorithm 1): the paper's primary
  * contribution. Finds all maximal fully connected (m,eps)-convoys of
  * length ≥ k while clustering only (a) the benchmark-point snapshots and
  * (b) the few objects that survive candidate pruning — in most datasets
  * >99% of points are never touched.
  *
  * Pipeline: benchmark clustering → candidate clusters → HWMT per
  * hop-window → DCM merge → right/left extension → FC validation, reported
  * as the [[RunReport]] phases `bench, cc, hwmt, merge, extR, extL, val`
  * together with the points fed to DBSCAN (Table 5). [[mine]] is its one
  * body; the single-JVM [[run]] and the Spark driver
  * (`repro.spark.SparkKHalfHop`) supply only where the points come from.
  * [[run]] reads through one per-run [[repro.store.PointCache]],
  * so each `(t, oid)` is fetched from the store at most once: extension and
  * validation re-cluster points that the benchmark step and HWMT already read.
  * Its one parallel step is the benchmark clustering: the snapshots of Step 2
  * are independent, so [[PointCounter.clusterAll]] clusters them on the
  * JVM's common fork-join pool. Every store read, and every other phase,
  * runs on the calling thread.
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

  /** Benchmark points b_i = ts + i*floor(k/2) over [ts, te] (Lemma 3). */
  def benchmarkPoints(ts: Int, te: Int, k: Int): Vector[Int] = (ts to te by (k / 2)).toVector

  /** Candidate clusters per hop-window (Lemma 5): the intersections of the
    * cluster sets at adjacent benchmark points that keep at least m objects,
    * one [[ObjSets.meets]] join per hop-window. `benchClusters(i)` holds the
    * clusters at benchmark point b_i. For each cluster `a` of b_i, its
    * intersections follow the order of b_{i+1}'s clusters.
    */
  def candidates(benchClusters: Vector[Vector[ObjSet]], m: Int): Vector[Vector[ObjSet]] = {
    require(m >= 1, "candidate size m must be >= 1")
    (0 until benchClusters.length - 1).toVector.map(i => ObjSets.meets(benchClusters(i), benchClusters(i + 1), m).map(_._3))
  }

  /** Step 5 of Algorithm 1 on the maximal spanning convoys `vm`: extend
    * right to `te`, then left to `ts`, and keep the maximal candidates of
    * length >= k. Returns this pre-validation set. The left pass's `acc`
    * grows only through `ConvoySets.update`, so no convoy in it covers
    * another, and the k filter keeps that so.
    */
  def extend(
      select: (Int, ObjSet) => Array[Pt],
      ts: Int,
      te: Int,
      vm: Vector[Convoy],
      p: Params,
      counter: PointCounter,
      timer: PhaseTimer,
  ): Vector[Convoy] = {
    val rightClosed = timer.phase("extR") {
      val acc = mutable.ArrayBuffer.empty[Convoy]
      vm.foreach(v => Extend.extendOne(select, v, te, forward = true, p.eps, p.m, counter, acc))
      acc.toVector
    }(_.length)
    timer.phase("extL") {
      val acc = mutable.ArrayBuffer.empty[Convoy]
      rightClosed.foreach(v => Extend.extendOne(select, v, ts, forward = false, p.eps, p.m, counter, acc))
      acc.iterator.filter(_.len >= p.k).toVector
    }(_.length)
  }

  /** Algorithm 1 over `[ts, te]`, timed as the phases `bench, cc, hwmt,
    * merge, extR, extL, val`. The drivers differ only in where the points
    * come from, which they supply as three readers:
    *   - `cluster(bps)`: the clusters of each benchmark snapshot;
    *   - `hwmt(bps, cc)`: each hop-window's spanning convoys (Algorithm 2);
    *   - `pruned(vm)`: a `select` that covers the objects of the maximal
    *     spanning convoys `vm`, for extension and validation. It runs in
    *     the `merge` phase.
    *
    * The readers count the points they cluster into `counter`, which the
    * report gives as `pointsProcessed`.
    */
  def mine(ts: Int, te: Int, p: Params, counter: PointCounter)(
      cluster: Vector[Int] => Vector[Vector[ObjSet]],
      hwmt: (Vector[Int], Vector[Vector[ObjSet]]) => Vector[Vector[Convoy]],
      pruned: Vector[Convoy] => (Int, ObjSet) => Array[Pt],
  ): (Vector[Convoy], RunReport) = {
    val timer = new PhaseTimer
    // Output size of a phase that yields one list per benchmark point or hop-window.
    val total = (lists: Vector[Vector[_]]) => lists.iterator.map(_.length.toLong).sum

    // Steps 1-3: cluster the benchmark points, candidate clusters per
    // hop-window (Lemma 5), then HWMT's 1st-order spanning convoys.
    val bps = benchmarkPoints(ts, te, p.k)
    val benchClusters = timer.phase("bench")(cluster(bps))(total)
    val cc = timer.phase("cc")(candidates(benchClusters, p.m))(total)
    val spanning = timer.phase("hwmt")(hwmt(bps, cc))(total)

    // Step 4: merge into maximal spanning convoys.
    val (vm, select) = timer.phase("merge") {
      val vm = Merge.mergeSpanning(spanning, p.m)
      (vm, pruned(vm))
    }(_._1.length)

    // Steps 5-6: extend, k filter, validate.
    val ve = extend(select, ts, te, vm, p, counter, timer)
    val convoys = timer.phase("val")(Validate.fullyConnected(ve, select, p.eps, p.m, p.k, counter))(_.length)
    (ConvoySets.sorted(convoys), timer.report(counter.n))
  }

  /** Mine all maximal FC convoys of `store` and report the run. Every read
    * goes through one [[repro.store.PointCache]] on the calling thread, in
    * one store call per kind where the store allows it:
    *   - all benchmark snapshots in one `snapshots` call, then clustered on
    *     the common fork-join pool ([[PointCounter.clusterAll]]);
    *   - HWMT one tree level at a time across the hop-windows, each level in
    *     one `selectMany` call whose requests offer their hop-window's
    *     interior. A store that reads the whole span (DuckDB) reads every
    *     live window's interior at the first level, in one call, and the
    *     later levels come from the cache;
    *   - extension and validation through `selectAround`, offering the
    *     interior of the hop-window that holds each `t`,
    *     `[b + 1, min(b + h - 1, te)]`. A store that reads the whole span
    *     answers the rest of the convoy's walk through that window from the
    *     cache. A benchmark point is offered alone: it is cached whole.
    */
  def run(store: TrajectoryStore, p: Params): (Vector[Convoy], RunReport) = {
    val counter = new PointCounter
    val cache = new PointCache(store)
    val (ts, te, h) = (store.ts, store.te, p.k / 2)
    val select = (t: Int, oids: ObjSet) => {
      // In Long: `b + h` wraps for timestamps near Int.MaxValue.
      val b = ts + Math.floorDiv(t.toLong - ts, h.toLong) * h
      val (t0, t1) = if (b == t || t > te) (t, t) else ((b + 1).toInt, math.min(b + h - 1, te.toLong).toInt)
      val (lo, got) = cache.selectAround(t, oids, t0, t1)
      got(t - lo)
    }
    mine(ts, te, p, counter)(
      bps => counter.clusterAll(cache.snapshots(bps), p.eps, p.m),
      HWMT.mineWindows(cache.selectMany, _, _, p.eps, p.m, counter),
      _ => select,
    )
  }
}
