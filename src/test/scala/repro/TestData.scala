package repro

import scala.util.Random

import repro.core.{Convoy, DBSCAN, HWMT, KHalfHop, Merge, ObjSets, PointCounter, Pt}
import repro.core.ObjSets.ObjSet
import repro.store.{PointCache, RecordingStore, TrajData, TrajectoryStore}
import repro.store.RecordingStore.Around

/** Tiny deterministic datasets for correctness tests.
  *
  * `randomTiny` puts a handful of objects on a lazy random walk over a small
  * integer grid (cells 2.0 apart; with eps = 2.1 horizontally/vertically
  * adjacent cells are "together", diagonals are not). The walk's temporal
  * coherence makes convoys, splits, merges and near-misses all genuinely
  * frequent — ideal adversarial input for equivalence testing against the
  * brute-force oracle.
  */
object TestData {

  /** eps matching the 2.0-spaced grid of `randomTiny`. */
  val GridEps = 2.1

  def randomTiny(seed: Long, nObj: Int = 8, nTs: Int = 30, grid: Int = 5): TrajData = {
    val rng = new Random(seed)
    val pos = Array.fill(nObj)((rng.nextInt(grid), rng.nextInt(grid)))
    val byTime = Array.fill(nTs) {
      val pts = Array.tabulate(nObj) { o =>
        val (cx, cy) = pos(o)
        // Lazy walk: stay with prob 1/2, else step one cell in a random direction.
        if (rng.nextBoolean()) {
          val dir = rng.nextInt(4)
          val (nx, ny) = dir match {
            case 0 => (cx + 1, cy)
            case 1 => (cx - 1, cy)
            case 2 => (cx, cy + 1)
            case _ => (cx, cy - 1)
          }
          pos(o) = (math.max(0, math.min(grid - 1, nx)), math.max(0, math.min(grid - 1, ny)))
        }
        val (x, y) = pos(o)
        Pt(o, x * 2.0, y * 2.0)
      }
      pts
    }
    TrajData(0, nTs - 1, byTime)
  }

  /** The read-ahead batch that `KHalfHop.run` asks its cache for at hop
    * `k / 2`, given the maximal spanning convoys `vm` of `data`: one request
    * per timestamp where a pass of extension starts, `v.te + 1` or
    * `v.ts - 1` of some `v` inside `[ts, te]`, for the union of those
    * convoys' objects, offering the interior of the timestamp's hop-window
    * (`t` alone at a benchmark point). In timestamp order.
    */
  def readAhead(data: TrajData, k: Int, vm: Seq[Convoy]): Seq[(Int, ObjSet, Int, Int)] = {
    val h = k / 2
    vm.flatMap(v => Seq(v.te + 1 -> v.objs, v.ts - 1 -> v.objs)).filter { case (t, _) => t >= data.ts && t <= data.te }
      .groupMapReduce(_._1)(_._2)(ObjSets.union).toSeq.sortBy(_._1).map { case (t, objs) =>
        val b = data.ts + (t - data.ts) / h * h
        if (b == t) (t, objs, t, t) else (t, objs, b + 1, math.min(b + h - 1, data.te))
      }
  }

  /** `KHalfHop.run`'s reads up to extension, replayed on a fresh cache over
    * `store`, which holds `data`: the benchmark snapshots, HWMT, then the
    * [[readAhead]] of the maximal spanning convoys. Returns the convoys, and
    * the batches that HWMT and the read-ahead made as `store` saw them.
    */
  def replayToExtension(data: TrajData, store: TrajectoryStore, p: KHalfHop.Params): (Vector[Convoy], Seq[Seq[Around]], Seq[Seq[Around]]) = {
    val recorder = new RecordingStore(store)
    val cache = new PointCache(recorder)
    val bps = KHalfHop.benchmarkPoints(data.ts, data.te, p.k)
    val cc = KHalfHop.candidates(cache.snapshots(bps).map(DBSCAN.cluster(_, p.eps, p.m)).toVector, p.m)
    val vm = Merge.mergeSpanning(HWMT.mineWindows(cache.selectMany, bps, cc, p.eps, p.m, new PointCounter), p.m)
    val hwmt = recorder.batches.toSeq
    cache.selectMany(readAhead(data, p.k, vm))
    (vm, hwmt, recorder.batches.toSeq.drop(hwmt.length))
  }

  /** `data` restricted to the objects in `objs` (per-convoy views for the
    * brute-force oracle).
    */
  def restrictTo(data: TrajData, objs: ObjSet): TrajData =
    TrajData(data.ts, data.te, data.byTime.map(_.filter(p => ObjSets.contains(objs, p.oid))))

  /** Hand-build a dataset from per-timestamp (oid, x, y) triples. */
  def fromTriples(triples: Seq[(Int, Int, Double, Double)]): TrajData =
    TrajData.fromPoints(triples.map { case (t, oid, x, y) => (t, Pt(oid, x, y)) })

  /** Objects `oid`, 1 and 2 side by side (x = 0, 1, 2) at every t in
    * t0..t0+11: one convoy `({oid,1,2},[t0,t0+11])` at m=3, k=4, eps=1.5.
    */
  def trio(oid: Int, t0: Int = 0): TrajData =
    fromTriples((0 to 11).flatMap(t => line(t0 + t, oid -> 0.0, 1 -> 1.0, 2 -> 2.0)))

  /** Place objects on a line at timestamp `t`: object `oid` at x-position
    * `pos`, y = 0. Handy for 1-D scenario construction with eps = 1.5 and
    * unit spacing = "together".
    */
  def line(t: Int, placements: (Int, Double)*): Seq[(Int, Int, Double, Double)] =
    placements.map { case (oid, x) => (t, oid, x, 0.0) }
}
