package convoybench

import java.sql.{Connection, DriverManager}
import java.util.{Arrays, SplittableRandom}

/** A fixed probe that reads how fast the host currently runs the kind of
  * work a workload's time goes to.
  *
  * On a shared host the speed of one core drifts by a third and more, over
  * seconds as well as minutes, with the load of the other tenants; every
  * timing of the program drifts with it. A probe is benchmark code only and
  * does the same work on every run, so its time moves with the host and
  * never with the program. End-to-end timings are reported at reference
  * speed: a time `t` read while the probe took `p` ms is reported as
  * `t * referenceMs / p`, where `p` is the mean of the probes run just
  * before and just after it.
  */
trait HostProbe extends AutoCloseable {

  /** Probe time at reference speed, in ms. */
  def referenceMs: Double

  /** Run the probe once; returns its time in ms. */
  def probeMs(): Double

  /** The factor that takes a time read while the probe took `probeMs` to
    * reference speed.
    */
  final def scale(probeMs: Double): Double = referenceMs / probeMs

  /** Run the probe until the JIT has compiled it. */
  def warmUp(): Unit = (1 to 50).foreach(_ => probeMs())

  def close(): Unit = ()
}

/** CPU speed: sorts 100,000 pseudo-random ints, then fills an
  * open-addressing int set with them and looks up 100,000 more. That is
  * branchy, cache-resident work like the miner's clustering and set algebra.
  * It allocates nothing, so the program's heap and its collections do not
  * change what it measures.
  */
object CpuProbe extends HostProbe {
  val referenceMs = 10.0

  private val Keys = 100000
  private val keys: Array[Int] = {
    val r = new SplittableRandom(20190101L)
    Array.fill(2 * Keys)(r.nextInt() | 1) // 0 marks an empty slot
  }
  private val sorted = new Array[Int](Keys)
  private val table = new Array[Int](1 << 18)
  @volatile private var sink = 0

  def probeMs(): Double = {
    val t0 = System.nanoTime()
    System.arraycopy(keys, 0, sorted, 0, Keys)
    Arrays.sort(sorted)
    Arrays.fill(table, 0)
    val mask = table.length - 1
    def slot(k: Int): Int = {
      var i = (k * 0x9e3779b9) >>> 14 & mask
      while (table(i) != 0 && table(i) != k) i = (i + 1) & mask
      i
    }
    var i = 0
    while (i < Keys) { table(slot(keys(i))) = keys(i); i += 1 }
    var hits = 0
    while (i < 2 * Keys) { if (table(slot(keys(i))) != 0) hits += 1; i += 1 }
    sink += sorted(Keys / 2) + hits
    (System.nanoTime() - t0) / 1e6
  }
}

/** DuckDB round-trip speed: 40 executions of the same prepared, indexed
  * range query that `RdbmsStore.select` issues, on a database of the
  * probe's own (100 timestamps × 600 objects). A `RdbmsStore` query spends
  * most of its time in such round trips, whose cost follows the wake-up
  * latency of DuckDB's worker threads far more than the CPU speed: on a
  * shared 4-core VM, over seven seeds, scaling by this probe took the
  * quartile spread of `rdbms-tdrive`'s `query_ms_p50` from 0.31 to 0.01,
  * where `CpuProbe` took it only to 0.14.
  */
final class DuckDbProbe extends HostProbe {
  val referenceMs = 20.0

  private val RoundTrips = 40
  private val conn: Connection = {
    Class.forName("org.duckdb.DuckDBDriver")
    DriverManager.getConnection("jdbc:duckdb:")
  }
  locally {
    val st = conn.createStatement()
    st.execute("CREATE TABLE probe (t INTEGER, oid INTEGER, x DOUBLE, y DOUBLE)")
    st.execute("INSERT INTO probe SELECT i // 600, i % 600, i * 0.5, i * 0.25 FROM range(0, 60000) r(i)")
    st.execute("CREATE INDEX probe_t_oid ON probe (t, oid)")
    st.close()
  }
  private val range = conn.prepareStatement("SELECT oid, x, y FROM probe WHERE t = ? AND oid BETWEEN ? AND ? ORDER BY oid")
  @volatile private var sink = 0.0

  def probeMs(): Double = {
    val t0 = System.nanoTime()
    var i = 0
    while (i < RoundTrips) {
      val lo = i * 37 % 500
      range.setInt(1, i); range.setInt(2, lo); range.setInt(3, lo + 20)
      val rs = range.executeQuery()
      while (rs.next()) sink += rs.getDouble(2)
      rs.close()
      i += 1
    }
    (System.nanoTime() - t0) / 1e6
  }

  override def close(): Unit = { range.close(); conn.close() }
}
