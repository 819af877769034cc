package repro.store

import java.sql.{Connection, DriverManager, ResultSet}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.core.{ObjSets, Pt, Pts}
import repro.core.ObjSets.ObjSet

/** Relational storage (paper §5.1): one table `traj(t, oid, x, y)` with a
  * multi-column index on (t, oid), served by DuckDB over JDBC in-process —
  * the only RDBMS available in this offline container.
  *
  * Access paths match the paper, and each answers in one round trip, which
  * costs about a millisecond whatever it returns:
  *   - benchmark snapshots: `snapshots` reads all of them in one query with
  *     an IN-list of the timestamps, `snapshot` one with `WHERE t = ?`;
  *   - point reads: `WHERE t BETWEEN ? AND ? AND oid BETWEEN ? AND ?` range
  *     reads over the index. `selectAround` reads the whole span `[t0, t1]`
  *     this way, and `select` is its one-timestamp case;
  *   - HWMT reads one whole tree level with `selectMany`, one join of the
  *     requested `(t, oid)` keys.
  *
  * Every row materialized over JDBC is charged to the read counter.
  */
final class RdbmsStore private (
    conn: Connection,
    override val ts: Int,
    override val te: Int,
    override val totalPoints: Long,
) extends CountingStore {
  import RdbmsStore.RunGap

  private val snapshotStmt =
    conn.prepareStatement("SELECT oid, x, y FROM traj WHERE t = ? ORDER BY oid")

  // Point reads reuse one prepared range statement over the (t, oid) index:
  // the sorted oid set is split into dense runs and each run is fetched over
  // the whole span with an index range scan (same plan a clustered B-tree
  // would use). Re-parsing SQL per call would otherwise dominate the paper's
  // access pattern.
  private val spanStmt = conn.prepareStatement(
    "SELECT t, oid, x, y FROM traj WHERE t BETWEEN ? AND ? AND oid BETWEEN ? AND ? ORDER BY t, oid")

  override def snapshot(t: Int): Array[Pt] = {
    snapshotStmt.setInt(1, t)
    val rs = snapshotStmt.executeQuery()
    val out = ArrayBuffer.empty[Pt]
    while (rs.next()) out += Pt(rs.getInt(1), rs.getDouble(2), rs.getDouble(3))
    rs.close()
    charge(out.toArray)
  }

  /** All timestamps in one query: the JDBC driver has no array parameters,
    * so they travel as an IN-list of integer literals.
    */
  override def snapshots(times: Seq[Int]): Seq[Array[Pt]] = {
    val wanted = times.filter(t => t >= ts && t <= te).distinct
    val byTime = mutable.LongMap.empty[ArrayBuffer[Pt]]
    if (wanted.nonEmpty) {
      val st = conn.createStatement()
      try collect(st.executeQuery(wanted.mkString("SELECT t, oid, x, y FROM traj WHERE t IN (", ",", ") ORDER BY t, oid")), byTime, null)
      finally st.close()
    }
    val rows = byTime.mapValuesNow(_.toArray)
    times.map(rows.getOrElse(_, Array.empty[Pt]))
  }

  /** The whole span `[t0, t1]`, clipped to `[ts, te]`, with one range read
    * per dense run of `oids`; the rows of other oids inside a run are read
    * (and charged) but dropped.
    */
  override def selectAround(t: Int, oids: ObjSet, t0: Int, t1: Int): (Int, Seq[Array[Pt]]) = {
    require(t0 <= t && t <= t1, s"[$t0, $t1] must hold $t")
    if (oids.isEmpty || t < ts || t > te) return (t, Seq(Array.empty[Pt]))
    val (lo, hi) = (math.max(t0, ts), math.min(t1, te))
    val byTime = mutable.LongMap.empty[ArrayBuffer[Pt]]
    var i = 0
    while (i < oids.length) {
      var j = i
      while (j + 1 < oids.length && oids(j + 1).toLong - oids(j) <= RunGap) j += 1
      spanStmt.setInt(1, lo); spanStmt.setInt(2, hi); spanStmt.setInt(3, oids(i)); spanStmt.setInt(4, oids(j))
      // Runs ascend in oid, so each timestamp's points stay in oid order.
      collect(spanStmt.executeQuery(), byTime, oids)
      i = j + 1
    }
    (lo, (lo to hi).map(u => byTime.get(u).fold(Array.empty[Pt])(_.toArray)))
  }

  override def select(t: Int, oids: ObjSet): Array[Pt] = selectAround(t, oids, t, t)._2.head

  // A batch of point reads is one join of the requested keys with `traj`.
  // The keys travel as two comma-separated lists, zipped back into rows by
  // the two parallel unnests (the JDBC driver has no array parameters).
  // The `t` range lets the scan skip the row groups outside the batch.
  private val batchStmt = conn.prepareStatement(
    """WITH k AS (SELECT unnest(string_split(?, ','))::INTEGER AS t, unnest(string_split(?, ','))::INTEGER AS oid)
      |SELECT traj.t, traj.oid, traj.x, traj.y FROM traj JOIN k ON traj.t = k.t AND traj.oid = k.oid
      |WHERE traj.t BETWEEN ? AND ? ORDER BY traj.t, traj.oid""".stripMargin)

  /** All requests in one query; each answer is then the request's oids among
    * the returned rows of its `t`. A single `select` stays on the span
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
    val byTime = mutable.LongMap.empty[ArrayBuffer[Pt]]
    collect(batchStmt.executeQuery(), byTime, null)
    val rows = byTime.mapValuesNow(_.toArray)
    reqs.map { case (t, oids) => rows.get(t).fold(Array.empty[Pt])(Pts.select(_, oids)) }
  }

  /** Append the `(t, oid, x, y)` rows of `rs`, ordered by `(t, oid)`, to
    * `byTime`, keeping only the oids of `keep` unless it is null; then close
    * `rs`. Every row materialized counts as I/O.
    */
  private def collect(rs: ResultSet, byTime: mutable.LongMap[ArrayBuffer[Pt]], keep: ObjSet): Unit =
    try while (rs.next()) {
      reads += 1
      val oid = rs.getInt(2)
      if ((keep eq null) || ObjSets.contains(keep, oid))
        byTime.getOrElseUpdate(rs.getInt(1), ArrayBuffer.empty[Pt]) += Pt(oid, rs.getDouble(3), rs.getDouble(4))
    } finally rs.close()

  override def close(): Unit = { snapshotStmt.close(); spanStmt.close(); batchStmt.close(); conn.close() }
}

object RdbmsStore {

  /** Max oid gap inside one range read; larger gaps start a new range. */
  private[store] val RunGap = 64

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
