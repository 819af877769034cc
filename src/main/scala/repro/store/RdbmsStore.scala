package repro.store

import java.sql.{Connection, DriverManager, ResultSet}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.core.{Pt, Pts}
import repro.core.ObjSets.ObjSet

/** Relational storage (paper §5.1): one table `traj(t, oid, x, y)` with a
  * multi-column index on (t, oid), served by DuckDB over JDBC in-process —
  * the only RDBMS available in this offline container.
  *
  * Access paths match the paper, and each answers in one round trip, which
  * costs about a millisecond whatever it returns. Two statements serve
  * them:
  *   - benchmark snapshots: `snapshots` reads all of them in one query with
  *     an IN-list of the timestamps, and `snapshot` is its one-timestamp case;
  *   - point reads: a `selectMany` batch with a live request (oids asked, `t`
  *     inside `[ts, te]`) is one join of exact `(t0, t1, oid)` key rows with
  *     `traj`, which reads every live request's whole span. HWMT's
  *     hop-window interiors, k/2-hop's read-ahead of each extension pass's
  *     first step and any later extension or validation read are such
  *     batches; `select` is the `[t, t]` case.
  *
  * Neither statement sorts: the engine returns rows in its parallel scan's
  * order, which keeps neither `t` nor oid order. The store files them by `t`
  * and puts each timestamp in oid order itself, which costs one pass when
  * they arrived in order, so every answer keeps the trait's oid order.
  *
  * Every row materialized over JDBC is charged to the read counter.
  */
final class RdbmsStore private (
    conn: Connection,
    override val ts: Int,
    override val te: Int,
    override val totalPoints: Long,
) extends CountingStore {
  // A batch of requests is one join of its `(t0, t1, oid)` key rows with
  // `traj`. The keys travel as three comma-separated lists, zipped back into
  // rows by the parallel unnests (the JDBC driver has no array parameters).
  // The outer `t` range lets the scan skip the row groups outside the batch.
  // The keys are exact oids: dense oid runs read far more rows on dense data.
  private val keyStmt = conn.prepareStatement(
    """WITH k AS (SELECT unnest(string_split(?, ','))::INTEGER AS t0, unnest(string_split(?, ','))::INTEGER AS t1,
      |  unnest(string_split(?, ','))::INTEGER AS oid)
      |SELECT traj.t, traj.oid, traj.x, traj.y FROM traj JOIN k ON traj.oid = k.oid AND traj.t BETWEEN k.t0 AND k.t1
      |WHERE traj.t BETWEEN ? AND ?""".stripMargin)

  override def snapshot(t: Int): Array[Pt] = snapshots(Seq(t)).head

  /** All timestamps in one query: the JDBC driver has no array parameters,
    * so they travel as an IN-list of integer literals. `snapshot` is its
    * one-timestamp case.
    */
  override def snapshots(times: Seq[Int]): Seq[Array[Pt]] = {
    val wanted = times.filter(t => t >= ts && t <= te).distinct
    val byTime = mutable.LongMap.empty[ArrayBuffer[Pt]]
    if (wanted.nonEmpty) {
      val st = conn.createStatement()
      try collect(st.executeQuery(wanted.mkString("SELECT t, oid, x, y FROM traj WHERE t IN (", ",", ")")), byTime)
      finally st.close()
    }
    val rows = byTime.mapValuesNow(r => Pts.inOidOrder(r.toArray))
    times.map(rows.getOrElse(_, Array.empty[Pt]))
  }

  /** Every request's whole span `[t0, t1]`, clipped to `[ts, te]`, in one
    * key join. A request with no oids, or whose `t` lies outside `[ts, te]`,
    * is answered at `t` alone and reads nothing.
    */
  override def selectMany(reqs: Seq[(Int, ObjSet, Int, Int)]): Seq[(Int, Seq[Array[Pt]])] = {
    reqs.foreach { case (t, _, t0, t1) => TrajectoryStore.requireHolds(t, t0, t1) }
    val spans = reqs.map { case (t, oids, t0, t1) =>
      Option.when(oids.nonEmpty && t >= ts && t <= te)((math.max(t0, ts), math.min(t1, te)))
    }
    val live = reqs.lazyZip(spans).flatMap { case ((_, oids, _, _), span) => span.map { case (lo, hi) => (oids, lo, hi) } }
    val byTime = mutable.LongMap.empty[ArrayBuffer[Pt]]
    if (live.nonEmpty) keyJoin(live, byTime)
    val rows = byTime.mapValuesNow(r => Pts.inOidOrder(r.toArray))
    reqs.lazyZip(spans).map {
      case ((t, _, _, _), None) => (t, Seq(Array.empty[Pt]))
      case ((_, oids, _, _), Some((lo, hi))) => (lo, (lo to hi).map(u => rows.get(u).fold(Array.empty[Pt])(Pts.select(_, oids))))
    }
  }

  override def select(t: Int, oids: ObjSet): Array[Pt] = selectAround(t, oids, t, t)._2.head

  /** Every `(oids, lo, hi)` request of `live` into `byTime`, with one key
    * join. Per oid the spans are merged where they overlap or touch, so the
    * key rows are distinct and no stored row matches two of them.
    */
  private def keyJoin(live: Seq[(ObjSet, Int, Int)], byTime: mutable.LongMap[ArrayBuffer[Pt]]): Unit = {
    val keys = live.iterator.flatMap { case (oids, lo, hi) => oids.iterator.map(o => (o, lo, hi)) }.toArray.sorted
    val (t0s, t1s, oidList) = (new StringBuilder, new StringBuilder, new StringBuilder)
    var i = 0
    while (i < keys.length) {
      val (oid, lo, first) = keys(i)
      var hi = first
      i += 1
      // In Long: `hi + 1` wraps at Int.MaxValue.
      while (i < keys.length && keys(i)._1 == oid && keys(i)._2 <= hi.toLong + 1) { hi = math.max(hi, keys(i)._3); i += 1 }
      if (oidList.nonEmpty) { t0s += ','; t1s += ','; oidList += ',' }
      t0s.append(lo); t1s.append(hi); oidList.append(oid)
    }
    keyStmt.setString(1, t0s.toString); keyStmt.setString(2, t1s.toString); keyStmt.setString(3, oidList.toString)
    keyStmt.setInt(4, live.iterator.map(_._2).min); keyStmt.setInt(5, live.iterator.map(_._3).max)
    collect(keyStmt.executeQuery(), byTime)
  }

  /** Append the `(t, oid, x, y)` rows of `rs`, in the engine's scan order,
    * to `byTime`, then close `rs`. Every row materialized counts as I/O.
    */
  private def collect(rs: ResultSet, byTime: mutable.LongMap[ArrayBuffer[Pt]]): Unit =
    try while (rs.next()) {
      reads += 1
      byTime.getOrElseUpdate(rs.getInt(1), ArrayBuffer.empty[Pt]) += Pt(rs.getInt(2), rs.getDouble(3), rs.getDouble(4))
    } finally rs.close()

  override def close(): Unit = { keyStmt.close(); conn.close() }
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
