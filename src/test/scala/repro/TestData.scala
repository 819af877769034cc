package repro

import scala.util.Random

import repro.core.Pt
import repro.store.TrajData

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
