package repro.store

import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.store.lsm.{LsmTree, SSTable}

/** LSM-tree internals: SSTable search, memtable/flush/compaction lifecycle,
  * newest-wins semantics, range scans.
  */
class LsmSpec extends AnyFunSuite {

  private def tmpDir = Files.createTempDirectory("lsmspec")

  test("SSTable point lookups and misses") {
    val path = Files.createTempFile("sst", ".sst")
    val t = SSTable.write(path, Iterator((1L, 1.0, 2.0), (5L, 5.0, 6.0), (9L, 9.0, 10.0)))
    try {
      assert(t.get(1L).contains((1.0, 2.0)))
      assert(t.get(5L).contains((5.0, 6.0)))
      assert(t.get(9L).contains((9.0, 10.0)))
      assert(t.get(0L).isEmpty)
      assert(t.get(4L).isEmpty)
      assert(t.get(10L).isEmpty)
    } finally t.delete()
    val empty = SSTable.write(Files.createTempFile("sst", ".sst"), Iterator.empty)
    try {
      assert(empty.get(0L).isEmpty && empty.get(Long.MinValue).isEmpty && empty.get(Long.MaxValue).isEmpty)
      assert(empty.lowerBound(0L) == 0 && empty.range(Long.MinValue, Long.MaxValue).isEmpty && empty.all.isEmpty)
    } finally empty.delete()
  }

  test("SSTable rejects unsorted input") {
    val path = Files.createTempFile("sst", ".sst")
    assertThrows[IllegalArgumentException] {
      SSTable.write(path, Iterator((5L, 0.0, 0.0), (1L, 0.0, 0.0)))
    }
    Files.deleteIfExists(path)
  }

  test("SSTable range scan returns the closed interval") {
    val path = Files.createTempFile("sst", ".sst")
    val t = SSTable.write(path, (1L to 100L).iterator.map(k => (k, k.toDouble, 0.0)))
    try {
      assert(t.range(10, 20).map(_._1) == (10L to 20L).toVector)
      assert(t.range(0, 5).map(_._1) == (1L to 5L).toVector)
      assert(t.range(95, 200).map(_._1) == (95L to 100L).toVector)
      assert(t.range(200, 300).isEmpty)
      assert(t.range(50, 50).map(_._1) == Vector(50L))
    } finally t.delete()
  }

  test("SSTable lowerBound on a big run") {
    val path = Files.createTempFile("sst", ".sst")
    val n = 5000L // keys 0, 2, …, 9998, so every odd probe falls between two records
    val t = SSTable.write(path, (0L until n).iterator.map(k => (k * 2, 0.0, 0.0)))
    try {
      assert(t.lowerBound(0) == 0)
      assert(t.lowerBound(1) == 1)       // first key >= 1 is 2 at index 1
      assert(t.lowerBound(2500) == 1250)
      assert(t.lowerBound(9998) == 4999)
      assert(t.lowerBound(10000) == 5000)
      for (probe <- Seq(511L, 512L, 513L, 1023L, 1024L)) {
        val idx = t.lowerBound(probe)
        assert(idx == (probe + 1) / 2, s"probe $probe")
      }
    } finally t.delete()
  }

  test("memtable flush threshold creates runs") {
    val tree = new LsmTree(tmpDir, flushThreshold = 10, maxRuns = 100)
    try {
      (1 to 25).foreach(i => tree.put(i.toLong, i, i))
      assert(tree.flushes == 2)
      assert(tree.runCount == 2)
      assert(tree.memtableSize == 5)
      (1 to 25).foreach(i => assert(tree.get(i.toLong).contains((i.toDouble, i.toDouble))))
    } finally tree.close()
  }

  test("compaction triggers when runs exceed maxRuns and preserves data") {
    val tree = new LsmTree(tmpDir, flushThreshold = 5, maxRuns = 2)
    try {
      (1 to 40).foreach(i => tree.put(i.toLong, i, -i))
      assert(tree.compactions >= 1)
      assert(tree.runCount <= 2)
      (1 to 40).foreach(i => assert(tree.get(i.toLong).contains((i.toDouble, -i.toDouble))))
    } finally tree.close()
  }

  test("newest value wins across memtable and runs") {
    val tree = new LsmTree(tmpDir, flushThreshold = 4, maxRuns = 10)
    try {
      tree.put(1L, 1, 1); tree.put(2L, 2, 2); tree.put(3L, 3, 3); tree.put(4L, 4, 4) // flush 1
      tree.put(1L, 10, 10); tree.put(5L, 5, 5); tree.put(6L, 6, 6); tree.put(7L, 7, 7) // flush 2
      tree.put(1L, 100, 100) // memtable
      assert(tree.get(1L).contains((100.0, 100.0)))
      tree.flush()
      assert(tree.get(1L).contains((100.0, 100.0)))
      tree.compact()
      assert(tree.get(1L).contains((100.0, 100.0)))
      assert(tree.get(2L).contains((2.0, 2.0)))
    } finally tree.close()
  }

  test("range scan merges memtable and runs with newest-wins") {
    val tree = new LsmTree(tmpDir, flushThreshold = 3, maxRuns = 10)
    try {
      tree.put(1L, 1, 0); tree.put(2L, 2, 0); tree.put(3L, 3, 0) // flushed
      tree.put(2L, 22, 0)                                       // memtable override
      val r = tree.range(1L, 3L)
      assert(r.map(x => (x._1, x._2)) == Vector((1L, 1.0), (2L, 22.0), (3L, 3.0)))
    } finally tree.close()
  }

  test("range over empty tree") {
    val tree = new LsmTree(tmpDir)
    try assert(tree.range(0, 100).isEmpty && tree.get(5L).isEmpty)
    finally tree.close()
  }

  test("randomized: LSM behaves like a TreeMap (1000 ops, small flush threshold)") {
    val rng = new Random(77)
    val tree = new LsmTree(tmpDir, flushThreshold = 16, maxRuns = 3)
    val oracle = scala.collection.mutable.TreeMap.empty[Long, (Double, Double)]
    try {
      for (_ <- 1 to 1000) {
        val k = rng.nextInt(200).toLong
        val v = (rng.nextDouble(), rng.nextDouble())
        tree.put(k, v._1, v._2)
        oracle.put(k, v)
      }
      for (k <- 0L until 200L) assert(tree.get(k) == oracle.get(k), s"key $k")
      val (lo, hi) = (25L, 175L)
      val got = tree.range(lo, hi).map(r => r._1 -> ((r._2, r._3)))
      val wantClosed = oracle.iterator.filter { case (k, _) => k >= lo && k <= hi }.toVector
      assert(got == wantClosed, s"range [$lo,$hi]")
    } finally tree.close()
  }

  test("LsmStore key packing keeps timestamps contiguous (snapshot = one range)") {
    val data = repro.data.TrajGen.trucksLite(scale = 0.2)
    val s = LsmStore.create(data, flushThreshold = 256, maxRuns = 3)
    try {
      for (t <- Seq(data.ts, data.ts + 7, data.te)) {
        val got = s.snapshot(t).map(_.oid).toSeq
        val want = data.byTime(t - data.ts).map(_.oid).toSeq
        assert(got == want, s"t=$t")
      }
    } finally s.close()
  }
}
