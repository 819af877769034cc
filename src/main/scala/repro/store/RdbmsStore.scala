package repro.store

import java.sql.{Connection, DriverManager}

import repro.core.Pt
import repro.core.ObjSets.ObjSet
import scala.collection.mutable.ArrayBuffer

/** Relational storage (paper §5.1): one table `traj(t, oid, x, y)` with a
  * multi-column index on (t, oid), served by DuckDB over JDBC in-process —
  * the only RDBMS available in this offline container.
  *
  * Access paths match the paper: benchmark snapshots are `WHERE t = ?` range
  * reads over the index; HWMT point reads are `WHERE t = ? AND oid IN (...)`.
  * Every row materialized over JDBC is charged to the read counter.
  */
final class RdbmsStore private (
    conn: Connection,
    override val ts: Int,
    override val te: Int,
    override val totalPoints: Long,
) extends CountingStore {

  private val snapshotStmt =
    conn.prepareStatement("SELECT oid, x, y FROM traj WHERE t = ? ORDER BY oid")

  // Point reads reuse one prepared range statement over the (t, oid) index:
  // the sorted oid set is split into dense runs and each run is fetched with
  // an index range scan (same plan a clustered B-tree would use). Re-parsing
  // SQL per call would otherwise dominate the paper's access pattern.
  private val rangeStmt =
    conn.prepareStatement("SELECT oid, x, y FROM traj WHERE t = ? AND oid BETWEEN ? AND ? ORDER BY oid")

  /** Max oid gap inside one fetched run; larger gaps start a new range. */
  private val RunGap = 64

  override def snapshot(t: Int): Array[Pt] = {
    snapshotStmt.setInt(1, t)
    val rs = snapshotStmt.executeQuery()
    val out = ArrayBuffer.empty[Pt]
    while (rs.next()) out += Pt(rs.getInt(1), rs.getDouble(2), rs.getDouble(3))
    rs.close()
    reads += out.length
    out.toArray
  }

  override def select(t: Int, oids: ObjSet): Array[Pt] = {
    if (oids.isEmpty) return Array.empty
    val out = ArrayBuffer.empty[Pt]
    var i = 0
    while (i < oids.length) {
      var j = i
      while (j + 1 < oids.length && oids(j + 1).toLong - oids(j) <= RunGap) j += 1
      rangeStmt.setInt(1, t); rangeStmt.setInt(2, oids(i)); rangeStmt.setInt(3, oids(j))
      val rs = rangeStmt.executeQuery()
      while (rs.next()) {
        val oid = rs.getInt(1)
        reads += 1 // every row materialized from the index counts as I/O
        if (repro.core.ObjSets.contains(oids, oid)) out += Pt(oid, rs.getDouble(2), rs.getDouble(3))
      }
      rs.close()
      i = j + 1
    }
    out.toArray
  }

  override def close(): Unit = { snapshotStmt.close(); rangeStmt.close(); conn.close() }
}

object RdbmsStore {

  /** Load `data` into a fresh in-process DuckDB database and index it. Uses
    * the native appender when available, falling back to JDBC batches.
    */
  def create(data: TrajData): RdbmsStore = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    val st = conn.createStatement()
    st.execute("CREATE TABLE traj (t INTEGER, oid INTEGER, x DOUBLE, y DOUBLE)")
    st.close()

    val loadedViaAppender =
      try {
        val app = conn.asInstanceOf[org.duckdb.DuckDBConnection].createAppender("main", "traj")
        data.iterator.foreach { case (t, p) =>
          app.beginRow(); app.append(t); app.append(p.oid); app.append(p.x); app.append(p.y); app.endRow()
        }
        app.close()
        true
      } catch { case _: Throwable => false }

    if (!loadedViaAppender) {
      val ps = conn.prepareStatement("INSERT INTO traj VALUES (?, ?, ?, ?)")
      var n = 0
      data.iterator.foreach { case (t, p) =>
        ps.setInt(1, t); ps.setInt(2, p.oid); ps.setDouble(3, p.x); ps.setDouble(4, p.y)
        ps.addBatch(); n += 1
        if (n % 10000 == 0) ps.executeBatch()
      }
      ps.executeBatch(); ps.close()
    }

    val idx = conn.createStatement()
    idx.execute("CREATE INDEX traj_t_oid ON traj (t, oid)")
    idx.close()
    new RdbmsStore(conn, data.ts, data.te, data.totalPoints)
  }
}
