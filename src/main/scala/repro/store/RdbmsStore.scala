package repro.store

import java.sql.{Connection, DriverManager}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.core.{Pt, Pts}
import repro.core.ObjSets.ObjSet

/** Relational storage (paper §5.1): one table `traj(t, oid, x, y)` with a
  * multi-column index on (t, oid), served by DuckDB over JDBC in-process —
  * the only RDBMS available in this offline container.
  *
  * Access paths match the paper: benchmark snapshots are `WHERE t = ?` range
  * reads over the index; point reads are `WHERE t = ? AND oid BETWEEN ...`
  * range reads, and HWMT reads one whole tree level with `selectMany`, one
  * join of the requested `(t, oid)` keys. Every row materialized over JDBC
  * is charged to the read counter.
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
    charge(out.toArray)
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

  // A batch of point reads is one join of the requested keys with `traj`.
  // The keys travel as two comma-separated lists, zipped back into rows by
  // the two parallel unnests (the JDBC driver has no array parameters).
  // The `t` range lets the scan skip the row groups outside the batch.
  private val batchStmt = conn.prepareStatement(
    """WITH k AS (SELECT unnest(string_split(?, ','))::INTEGER AS t, unnest(string_split(?, ','))::INTEGER AS oid)
      |SELECT traj.t, traj.oid, traj.x, traj.y FROM traj JOIN k ON traj.t = k.t AND traj.oid = k.oid
      |WHERE traj.t BETWEEN ? AND ? ORDER BY traj.t, traj.oid""".stripMargin)

  /** All requests in one query; each answer is then the request's oids among
    * the returned rows of its `t`. A single `select` stays on the range
    * statement, whose round trip is the cheaper one.
    */
  override def selectMany(reqs: Seq[(Int, ObjSet)]): Seq[Array[Pt]] = {
    val tList = new StringBuilder
    val oidList = new StringBuilder
    var (lo, hi) = (Int.MaxValue, Int.MinValue)
    reqs.foreach { case (t, oids) =>
      oids.foreach { oid =>
        if (tList.nonEmpty) { tList += ','; oidList += ',' }
        tList.append(t); oidList.append(oid)
        lo = math.min(lo, t); hi = math.max(hi, t)
      }
    }
    if (tList.isEmpty) return reqs.map(_ => Array.empty[Pt])
    batchStmt.setString(1, tList.toString); batchStmt.setString(2, oidList.toString)
    batchStmt.setInt(3, lo); batchStmt.setInt(4, hi)
    val rs = batchStmt.executeQuery()
    val byTime = mutable.LongMap.empty[ArrayBuffer[Pt]]
    while (rs.next()) {
      reads += 1
      byTime.getOrElseUpdate(rs.getInt(1), ArrayBuffer.empty[Pt]) += Pt(rs.getInt(2), rs.getDouble(3), rs.getDouble(4))
    }
    rs.close()
    val rows = byTime.mapValuesNow(_.toArray)
    reqs.map { case (t, oids) => rows.get(t).fold(Array.empty[Pt])(Pts.select(_, oids)) }
  }

  override def close(): Unit = { snapshotStmt.close(); rangeStmt.close(); batchStmt.close(); conn.close() }
}

object RdbmsStore {

  /** Load `data` into a fresh in-process DuckDB database with the native
    * appender, and index it.
    */
  def create(data: TrajData): RdbmsStore = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    val st = conn.createStatement()
    st.execute("CREATE TABLE traj (t INTEGER, oid INTEGER, x DOUBLE, y DOUBLE)")
    st.close()

    val app = conn.asInstanceOf[org.duckdb.DuckDBConnection].createAppender("main", "traj")
    data.iterator.foreach { case (t, p) =>
      app.beginRow(); app.append(t); app.append(p.oid); app.append(p.x); app.append(p.y); app.endRow()
    }
    app.close()

    val idx = conn.createStatement()
    idx.execute("CREATE INDEX traj_t_oid ON traj (t, oid)")
    idx.close()
    new RdbmsStore(conn, data.ts, data.te, data.totalPoints)
  }
}
