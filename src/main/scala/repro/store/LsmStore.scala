package repro.store

import java.nio.file.{Files, Path}

import repro.core.Pt
import repro.core.ObjSets.ObjSet
import repro.store.lsm.LsmTree
import scala.collection.mutable.ArrayBuffer

/** LSM-tree storage (paper §5.2): composite key `(t, oid)` packed by
  * `LsmStore.key`, location `(x, y)` as the value.
  *
  *   - benchmark reads: one range scan `[(t,minOid) .. (t,maxOid)]` — the
  *     timestamp's data is co-located, so each run answers it with one
  *     binary search of its memory mapping and one sequential read;
  *   - HWMT reads: one point `get` per (t, oid) pair.
  */
final class LsmStore private (
    tree: LsmTree,
    override val ts: Int,
    override val te: Int,
    override val totalPoints: Long,
) extends CountingStore {

  import LsmStore.{key, oidOf}

  override def snapshot(t: Int): Array[Pt] = {
    val rows = tree.range(key(t, Int.MinValue), key(t, Int.MaxValue))
    charge(rows.iterator.map { case (k, x, y) => Pt(oidOf(k), x, y) }.toArray)
  }

  override def select(t: Int, oids: ObjSet): Array[Pt] = {
    val out = ArrayBuffer.empty[Pt]
    oids.foreach { oid =>
      tree.get(key(t, oid)).foreach { case (x, y) => out += Pt(oid, x, y) }
    }
    charge(out.toArray)
  }

  override def close(): Unit = tree.close()
}

object LsmStore {
  /** `t` in the high word, `oid ^ Int.MinValue` in the low word: flipping the
    * sign bit makes the unsigned order of the low word the signed order of
    * the oids, so one timestamp's keys are contiguous and sorted by oid.
    */
  private def key(t: Int, oid: Int): Long = (t.toLong << 32) | ((oid ^ Int.MinValue).toLong & 0xffffffffL)

  private def oidOf(key: Long): Int = key.toInt ^ Int.MinValue

  /** Bulk-load `data` through the normal insert path (exercising flushes and
    * compactions), then leave one final flushed tree ready for reads.
    */
  def create(data: TrajData, dir: Path = Files.createTempDirectory("k2lsm"),
             flushThreshold: Int = 128 * 1024, maxRuns: Int = 6): LsmStore = {
    val tree = new LsmTree(dir, flushThreshold, maxRuns)
    data.iterator.foreach { case (t, p) =>
      tree.put(key(t, p.oid), p.x, p.y)
    }
    tree.flush()
    new LsmStore(tree, data.ts, data.te, data.totalPoints)
  }
}
