package repro.store

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, FileInputStream, FileOutputStream}
import java.nio.file.{Files, Path}

import repro.core.{ObjSets, Pt}
import repro.core.ObjSets.ObjSet

/** Flat-file storage (paper §5: "flat files are good for scans but are not
  * suitable for random access").
  *
  * The dataset is serialized once to a real binary file; `open`ing the store
  * reads the *entire* file back into memory (one sequential scan — the only
  * access pattern a flat file supports) and serves all queries from the
  * in-memory image. The full-file load is charged to the read counter, which
  * is why k2-File shows no pruning benefit at the storage level: it always
  * pays for every point, exactly as the paper describes.
  */
final class FileStore private (
    val path: Path,
    data: TrajData,
    deleteOnClose: Boolean,
) extends CountingStore {

  // Charge the initial full scan: a flat file must be read end-to-end.
  reads += data.totalPoints

  override def ts: Int = data.ts
  override def te: Int = data.te
  override def totalPoints: Long = data.totalPoints

  override def snapshot(t: Int): Array[Pt] = {
    val r = if (t < ts || t > te) Array.empty[Pt] else data.byTime(t - ts)
    r
  }

  override def select(t: Int, oids: ObjSet): Array[Pt] =
    snapshot(t).filter(p => ObjSets.contains(oids, p.oid))

  override def close(): Unit = if (deleteOnClose) Files.deleteIfExists(path)
}

object FileStore {
  private val Magic = 0x4b32f11e

  /** Serialize `data` to `path` (binary: magic, ts, te, per-timestamp counts
    * and records) and open a store over it.
    */
  def create(data: TrajData, path: Path = Files.createTempFile("k2file", ".bin"),
             deleteOnClose: Boolean = true): FileStore = {
    write(data, path)
    open(path, deleteOnClose)
  }

  def write(data: TrajData, path: Path): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path.toFile), 1 << 16))
    try {
      out.writeInt(Magic); out.writeInt(data.ts); out.writeInt(data.te)
      data.byTime.foreach { pts =>
        out.writeInt(pts.length)
        pts.foreach { p => out.writeInt(p.oid); out.writeDouble(p.x); out.writeDouble(p.y) }
      }
    } finally out.close()
  }

  /** Read the whole file back (sequential scan) and wrap it. */
  def open(path: Path, deleteOnClose: Boolean = false): FileStore = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(path.toFile), 1 << 16))
    try {
      require(in.readInt() == Magic, s"$path is not a FileStore image")
      val ts = in.readInt(); val te = in.readInt()
      val byTime = Array.tabulate(te - ts + 1) { _ =>
        val n = in.readInt()
        Array.fill(n)(Pt(in.readInt(), in.readDouble(), in.readDouble()))
      }
      new FileStore(path, TrajData(ts, te, byTime), deleteOnClose)
    } finally in.close()
  }
}
