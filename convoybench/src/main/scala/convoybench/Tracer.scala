package convoybench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}

import repro.core.Pt
import repro.core.ObjSets.ObjSet
import repro.store.TrajectoryStore

/** In-memory span log for the traced run. A span has a kind, a start and
  * end time, the span that caused it, the query it belongs to and a point
  * count. Spans are appended when they end and written out once, at the end
  * of the run, so tracing does no I/O while queries are timed.
  *
  * Single-threaded: new spans nest under the innermost open span.
  */
final class Tracer {
  import Tracer._

  private var n = 0
  private var ids = new Array[Int](1024)
  private var kinds = new Array[Int](1024)
  private var parents = new Array[Int](1024)
  private var queries = new Array[Int](1024)
  private var starts = new Array[Long](1024)
  private var ends = new Array[Long](1024)
  private var points = new Array[Long](1024)

  private var nextId = 0
  private var openId = -1
  private var query = -1

  /** Start a new query: spans from now on carry the next query id. */
  def beginQuery(): Unit = query += 1

  def size: Int = n
  def kind(i: Int): Int = kinds(i)
  def parent(i: Int): Int = parents(i)
  def queryOf(i: Int): Int = queries(i)
  def nanos(i: Int): Long = ends(i) - starts(i)
  def pointsOf(i: Int): Long = points(i)
  def id(i: Int): Int = ids(i)

  /** Run `f` as a span of `kind` nested under the open span. */
  def span[A](kind: Int)(f: => A): A = spanCounting[A](kind, _ => 0L)(f)

  /** As `span`; `pts` gives the span's point count from its result. */
  def spanCounting[A](kind: Int, pts: A => Long)(f: => A): A = {
    val myId = nextId; nextId += 1
    val parent = openId
    openId = myId
    val t0 = System.nanoTime()
    val r = try f finally openId = parent
    val t1 = System.nanoTime()
    append(myId, kind, parent, t0, t1, pts(r))
    r
  }

  private def append(myId: Int, kind: Int, parent: Int, t0: Long, t1: Long, pts: Long): Unit = {
    if (n == kinds.length) {
      val c = n * 2
      kinds = java.util.Arrays.copyOf(kinds, c); parents = java.util.Arrays.copyOf(parents, c)
      queries = java.util.Arrays.copyOf(queries, c); ids = java.util.Arrays.copyOf(ids, c)
      starts = java.util.Arrays.copyOf(starts, c); ends = java.util.Arrays.copyOf(ends, c)
      points = java.util.Arrays.copyOf(points, c)
    }
    ids(n) = myId; kinds(n) = kind; parents(n) = parent; queries(n) = query
    starts(n) = t0; ends(n) = t1; points(n) = pts
    n += 1
  }

  /** Write all spans as tab-separated lines: id, parent, query, kind,
    * start ns, end ns, points.
    */
  def writeTsv(file: Path): Unit = {
    Files.createDirectories(file.getParent)
    val w = Files.newBufferedWriter(file, UTF_8)
    try {
      w.write("id\tparent\tquery\tkind\tstart_ns\tend_ns\tpoints\n")
      var i = 0
      while (i < n) {
        w.write(s"${ids(i)}\t${parents(i)}\t${queries(i)}\t${Names(kinds(i))}\t${starts(i)}\t${ends(i)}\t${points(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

object Tracer {
  val Query = 0
  val Benchmark = 1
  val Candidates = 2
  val Hwmt = 3
  val Merge = 4
  val ExtendRight = 5
  val ExtendLeft = 6
  val Validate = 7
  val Snapshot = 8
  val Select = 9
  val Dbscan = 10

  val Names: Vector[String] = Vector(
    "query", "phase.benchmark", "phase.candidates", "phase.hwmt", "phase.merge",
    "phase.extend_right", "phase.extend_left", "phase.validate",
    "store.snapshot", "store.select", "dbscan",
  )
}

/** `TrajectoryStore` decorator that records every snapshot and select as a
  * span under the tracer's open span, with the number of points returned.
  * It changes nothing the store returns or counts.
  */
final class TracingStore(underlying: TrajectoryStore, tracer: Tracer) extends TrajectoryStore {
  override def ts: Int = underlying.ts
  override def te: Int = underlying.te
  override def totalPoints: Long = underlying.totalPoints

  override def snapshot(t: Int): Array[Pt] =
    tracer.spanCounting[Array[Pt]](Tracer.Snapshot, _.length.toLong)(underlying.snapshot(t))

  override def select(t: Int, oids: ObjSet): Array[Pt] =
    tracer.spanCounting[Array[Pt]](Tracer.Select, _.length.toLong)(underlying.select(t, oids))

  override def pointsRead: Long = underlying.pointsRead
  override def resetCounters(): Unit = underlying.resetCounters()

  /** Closing the decorator leaves the store open: the benchmark owns it. */
  override def close(): Unit = ()
}
