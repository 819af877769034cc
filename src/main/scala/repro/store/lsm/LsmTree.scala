package repro.store.lsm

import java.nio.file.{Files, Path}
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** A small but genuine Log-Structured Merge-Tree (O'Neil et al. '96):
  * freshly inserted key-value pairs land in an in-memory sorted memtable;
  * when it exceeds `flushThreshold` entries it is flushed as an immutable
  * sorted run (`SSTable`) on disk; when more than `maxRuns` runs exist they
  * are compacted (size-tiered full merge, newest value wins per key).
  *
  * Reads consult memtable → newest run → … → oldest run; each run is read
  * through its own memory mapping (`SSTable`). Values are a pair of doubles
  * (x, y); keys are arbitrary longs — the store layer encodes (t, oid) into
  * them.
  */
final class LsmTree(dir: Path, flushThreshold: Int = 128 * 1024, maxRuns: Int = 6)
    extends AutoCloseable {
  require(flushThreshold > 0 && maxRuns >= 1)
  Files.createDirectories(dir)

  private val memtable = new java.util.TreeMap[Long, (Double, Double)]()
  /** Runs newest-first. */
  private var runs: List[SSTable] = Nil
  private val seq = new AtomicLong(0)

  /** Statistics exposed for tests: how many flushes/compactions happened. */
  var flushes: Int = 0
  var compactions: Int = 0

  def runCount: Int = runs.size
  def memtableSize: Int = memtable.size

  def put(key: Long, x: Double, y: Double): Unit = {
    memtable.put(key, (x, y))
    if (memtable.size >= flushThreshold) flush()
  }

  /** Flush the memtable to a new run. */
  def flush(): Unit = {
    if (memtable.isEmpty) return
    val path = dir.resolve(f"run-${seq.getAndIncrement()}%06d.sst")
    val it = memtable.entrySet().iterator().asScala.map(e => (e.getKey, e.getValue._1, e.getValue._2))
    runs = SSTable.write(path, it) :: runs
    memtable.clear()
    flushes += 1
    if (runs.size > maxRuns) compact()
  }

  /** Size-tiered full compaction: merge every run into one, newest wins. */
  def compact(): Unit = {
    if (runs.size <= 1) return
    val merged = new java.util.TreeMap[Long, (Double, Double)]()
    // Oldest first so newer runs overwrite on key collision.
    runs.reverse.foreach { r =>
      r.all.foreach { case (k, x, y) => merged.put(k, (x, y)) }
    }
    val path = dir.resolve(f"run-${seq.getAndIncrement()}%06d.sst")
    val table = SSTable.write(
      path,
      merged.entrySet().iterator().asScala.map(e => (e.getKey, e.getValue._1, e.getValue._2)),
    )
    runs.foreach(_.delete())
    runs = List(table)
    compactions += 1
  }

  def get(key: Long): Option[(Double, Double)] = {
    val m = memtable.get(key)
    if (m != null) return Some(m)
    var rs = runs
    while (rs.nonEmpty) {
      val hit = rs.head.get(key)
      if (hit.isDefined) return hit
      rs = rs.tail
    }
    None
  }

  /** Range scan over `[lo, hi]`, newest value winning per key. */
  def range(lo: Long, hi: Long): Vector[(Long, Double, Double)] = {
    val acc = mutable.TreeMap.empty[Long, (Double, Double)]
    // Oldest run first; newer runs and finally the memtable overwrite.
    runs.reverse.foreach { r =>
      r.range(lo, hi).foreach { case (k, x, y) => acc.put(k, (x, y)) }
    }
    memtable.subMap(lo, true, hi, true).entrySet().iterator().asScala.foreach { e =>
      acc.put(e.getKey, e.getValue)
    }
    acc.iterator.map { case (k, (x, y)) => (k, x, y) }.toVector
  }

  override def close(): Unit = {
    runs.foreach(_.delete())
    runs = Nil
    Files.deleteIfExists(dir)
    ()
  }
}
