package repro.store.lsm

import java.io.{BufferedOutputStream, DataOutputStream, FileOutputStream, RandomAccessFile}
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

/** One immutable sorted run of the LSM tree.
  *
  * Records are fixed width — `key: Long, x: Double, y: Double` (24 bytes) —
  * so lookups binary-search the file directly by record index; no separate
  * block index is needed. A small in-memory fence array (every
  * `FenceStride`-th key) narrows the search to one stride before seeking,
  * keeping disk seeks at ~log2(stride) per point read.
  *
  * Keys encode (timestamp, oid) as built by `LsmStore.key`: `t` in the high
  * 32 bits and `oid ^ Int.MinValue` in the low 32, so keys sort by (t, oid)
  * with negative oids first. A per-timestamp scan is therefore a contiguous
  * key range — the property §5.2 of the paper relies on for single-seek
  * benchmark reads.
  */
final class SSTable private (val path: Path, val count: Long) extends AutoCloseable {
  import SSTable._

  private val raf = new RandomAccessFile(path.toFile, "r")

  /** Fence keys: keys at record indices 0, FenceStride, 2·FenceStride, … */
  private val fences: Array[Long] = {
    val n = ((count + FenceStride - 1) / FenceStride).toInt
    val f = new Array[Long](n)
    var i = 0
    while (i < n) { f(i) = keyAt(i.toLong * FenceStride); i += 1 }
    f
  }

  val firstKey: Long = if (count == 0) Long.MaxValue else keyAt(0)
  val lastKey: Long = if (count == 0) Long.MinValue else keyAt(count - 1)

  private def keyAt(idx: Long): Long = { raf.seek(idx * RecordBytes); raf.readLong() }

  private def recordAt(idx: Long): (Long, Double, Double) = {
    raf.seek(idx * RecordBytes)
    (raf.readLong(), raf.readDouble(), raf.readDouble())
  }

  /** Index of the first record with key ≥ `key` (== count if none). */
  def lowerBound(key: Long): Long = {
    if (count == 0 || key <= firstKey) return 0
    if (key > lastKey) return count
    // Narrow with fences, then binary search records inside the stride.
    var fLo = 0; var fHi = fences.length - 1
    while (fLo < fHi) { // find last fence with key < target
      val mid = (fLo + fHi + 1) >>> 1
      if (fences(mid) < key) fLo = mid else fHi = mid - 1
    }
    var lo = fLo.toLong * FenceStride
    var hi = math.min(count - 1, lo + FenceStride)
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (keyAt(mid) < key) lo = mid + 1 else hi = mid - 1
    }
    lo
  }

  /** Point lookup. */
  def get(key: Long): Option[(Double, Double)] = {
    if (count == 0 || key < firstKey || key > lastKey) return None
    val idx = lowerBound(key)
    if (idx >= count) return None
    val (k, x, y) = recordAt(idx)
    if (k == key) Some((x, y)) else None
  }

  /** All records with `lo ≤ key ≤ hi`, in key order (one seek + sequential). */
  def range(lo: Long, hi: Long): Vector[(Long, Double, Double)] = {
    if (count == 0 || hi < firstKey || lo > lastKey) return Vector.empty
    var idx = lowerBound(lo)
    val out = ArrayBuffer.empty[(Long, Double, Double)]
    var done = idx >= count
    while (!done) {
      val r = recordAt(idx)
      if (r._1 > hi) done = true
      else {
        out += r
        idx += 1
        if (idx >= count) done = true
      }
    }
    out.toVector
  }

  /** Full sequential iterator (used by compaction). */
  def all: Vector[(Long, Double, Double)] = range(Long.MinValue, Long.MaxValue)

  override def close(): Unit = raf.close()

  def delete(): Unit = { close(); Files.deleteIfExists(path) }
}

object SSTable {
  val RecordBytes = 24
  val FenceStride = 256

  /** Write a run from already-sorted, deduplicated entries. */
  def write(path: Path, sorted: Iterator[(Long, Double, Double)]): SSTable = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path.toFile), 1 << 16))
    var n = 0L
    var prev = Long.MinValue
    try {
      sorted.foreach { case (k, x, y) =>
        require(k > prev, s"SSTable input not strictly sorted: $prev then $k")
        prev = k
        out.writeLong(k); out.writeDouble(x); out.writeDouble(y); n += 1
      }
    } finally out.close()
    new SSTable(path, n)
  }
}
