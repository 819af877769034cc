package repro.store.lsm

import java.io.{BufferedOutputStream, DataOutputStream, FileOutputStream}
import java.nio.MappedByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}

/** One immutable sorted run of the LSM tree, read through one read-only
  * memory mapping of its file.
  *
  * Records are fixed width — `key: Long, x: Double, y: Double` (24 bytes,
  * big-endian) — so record `i`'s key is the `Long` at byte `24·i`, and
  * lookups binary-search the mapping by record index; no block or fence
  * index is needed.
  *
  * Keys encode (timestamp, oid) as built by `LsmStore.key`: `t` in the high
  * 32 bits and `oid ^ Int.MinValue` in the low 32, so keys sort by (t, oid)
  * with negative oids first. A per-timestamp scan is therefore a contiguous
  * key range — the property §5.2 of the paper relies on for single-seek
  * benchmark reads.
  *
  * One mapping spans at most `Int.MaxValue` bytes, so a run holds at most
  * `MaxRecords` records; `write` refuses a larger one. Nothing is unmapped
  * explicitly: the mapping is released when the table is garbage-collected,
  * and `delete` only removes the file.
  */
final class SSTable private (val path: Path, val count: Int) {
  import SSTable._

  private val buf: MappedByteBuffer = {
    val ch = FileChannel.open(path, StandardOpenOption.READ)
    try ch.map(FileChannel.MapMode.READ_ONLY, 0, count.toLong * RecordBytes)
    finally ch.close()
  }

  private def keyAt(i: Int): Long = buf.getLong(i * RecordBytes)

  private def recordAt(i: Int): (Long, Double, Double) = {
    val at = i * RecordBytes
    (buf.getLong(at), buf.getDouble(at + 8), buf.getDouble(at + 16))
  }

  /** Index of the first record with key ≥ `key` (== count if none). */
  def lowerBound(key: Long): Long = {
    var lo = 0
    var hi = count
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (keyAt(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Point lookup. */
  def get(key: Long): Option[(Double, Double)] = {
    val i = lowerBound(key).toInt
    if (i == count || keyAt(i) != key) None
    else Some((buf.getDouble(i * RecordBytes + 8), buf.getDouble(i * RecordBytes + 16)))
  }

  /** All records with `lo ≤ key ≤ hi`, in key order. */
  def range(lo: Long, hi: Long): Vector[(Long, Double, Double)] = {
    val out = Vector.newBuilder[(Long, Double, Double)]
    var i = lowerBound(lo).toInt
    while (i < count && keyAt(i) <= hi) { out += recordAt(i); i += 1 }
    out.result()
  }

  /** Every record in key order (used by compaction). */
  def all: Vector[(Long, Double, Double)] = range(Long.MinValue, Long.MaxValue)

  def delete(): Unit = { Files.deleteIfExists(path); () }
}

object SSTable {
  val RecordBytes = 24

  /** The most records one mapping can address. */
  val MaxRecords: Int = Int.MaxValue / RecordBytes

  /** Write a run from already-sorted, deduplicated entries. */
  def write(path: Path, sorted: Iterator[(Long, Double, Double)]): SSTable = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path.toFile), 1 << 16))
    var n = 0
    var prev = 0L
    try {
      sorted.foreach { case (k, x, y) =>
        require(n == 0 || k > prev, s"SSTable input not strictly sorted: $prev then $k")
        require(n < MaxRecords, s"SSTable run exceeds $MaxRecords records, the most one memory mapping can address")
        prev = k
        out.writeLong(k); out.writeDouble(x); out.writeDouble(y); n += 1
      }
    } finally out.close()
    new SSTable(path, n)
  }
}
