package convoybench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import repro.core.KHalfHop
import repro.core.KHalfHop.Params

/** The traced run (`--trace 1`): per-layer metrics, timed from outside the
  * program through the public functions of `repro.store`, `repro.core` and
  * `repro.data`.
  *
  * Each query of the timed loop runs twice: untraced through `KHalfHop.run`
  * on the bare store, then through [[TracedPipeline]] on a [[TracingStore]]
  * over the same store. Both must return the reference convoys and the same
  * `pointsProcessed`. Per-layer metrics are means per query over the whole
  * sweeps run, or ratios pooled over them; `trace.overhead_pct` compares the
  * two timings.
  */
object TracedRun {
  import Main._

  /** What the benchmark measures around one traced query. */
  private final case class QueryRecord(q: Params, untracedNs: Long, pointsRead: Long, cards: TracedPipeline.Cards)

  def run(args: Args): Unit = {
    val w = args.workload
    val Prepared(data, answers) = prepare(args)

    val heap0 = liveHeapBytes()
    val dir = freshDir(args, w.store.name)
    val t0 = System.nanoTime()
    val store = w.store.create(data, dir)
    val ingestNs = System.nanoTime() - t0
    val diskBytes = if (w.store == StoreKind.Lsm) dirBytes(dir) else 0L

    val tracer = new Tracer
    val traced = new TracingStore(store, tracer)
    val records = ArrayBuffer.empty[QueryRecord]
    var attempted = 0L
    var failed = 0L
    var storeHeap = 0L
    try {
      sweepFor(args.seconds / 2.0, w.queries)(q => KHalfHop.run(store, q))
      // Taken before any span exists, so it counts the store and what its
      // warm queries left behind, not the trace.
      storeHeap = liveHeapBytes() - heap0
      sweepFor(args.seconds, w.queries) { q =>
        attempted += 1
        try {
          val u0 = System.nanoTime()
          val (convoys, stats) = KHalfHop.run(store, q)
          val untracedNs = System.nanoTime() - u0
          val read0 = store.pointsRead
          val r = TracedPipeline.run(traced, q, tracer)
          records += QueryRecord(q, untracedNs, store.pointsRead - read0, r.cards)
          val ok = matches(convoys, answers(q)) && r.convoys == convoys && r.pointsProcessed == stats.pointsProcessed
          if (!ok) {
            failed += 1
            System.err.println(s"convoybench: ${describe(q)}: traced pipeline gave ${r.convoys.length} convoys / " +
              s"${r.pointsProcessed} points, KHalfHop.run ${convoys.length} / ${stats.pointsProcessed}, " +
              s"reference ${answers(q).length} convoys")
          }
        } catch {
          case NonFatal(e) =>
            failed += 1
            System.err.println(s"convoybench: ${describe(q)} threw $e")
        }
      }
    } finally store.close()

    val metrics = layerMetrics(tracer, records.toVector, ingestNs, diskBytes, storeHeap, data.totalPoints)
    metrics.foreach { case (n, v, u) => metricLine(w, n, v, u) }
    tracer.writeTsv(args.workDir.resolve("traces").resolve(s"${w.name}-seed${args.seed}.tsv"))
    writeProbeTable(args, tracer, records.toVector)
    println(resultJson(failed == 0, attempted, failed, metrics))
  }

  private def dirBytes(dir: Path): Long = {
    val files = Files.list(dir)
    try files.iterator.asScala.map(Files.size).sum
    finally files.close()
  }

  /** Per-query sums of span time, calls and points, by span kind and by the
    * kind of the span's parent.
    */
  private final class Sums(queries: Int) {
    val ns: Array[Array[Long]] = Array.fill(Tracer.Names.length, queries)(0L)
    val calls: Array[Array[Long]] = Array.fill(Tracer.Names.length, queries)(0L)
    val pts: Array[Array[Long]] = Array.fill(Tracer.Names.length, queries)(0L)
    /** Store-span time and select calls under each parent kind. */
    val storeNsUnder: Array[Array[Long]] = Array.fill(Tracer.Names.length, queries)(0L)
    val selectsUnder: Array[Array[Long]] = Array.fill(Tracer.Names.length, queries)(0L)

    def total(a: Array[Array[Long]], kind: Int): Long = a(kind).sum
  }

  private def sums(tracer: Tracer, queries: Int): Sums = {
    val s = new Sums(queries)
    val kindOf = new Array[Int](tracer.size)
    var i = 0
    while (i < tracer.size) { kindOf(tracer.id(i)) = tracer.kind(i); i += 1 }
    i = 0
    while (i < tracer.size) {
      val k = tracer.kind(i); val q = tracer.queryOf(i)
      if (q >= 0 && q < queries) {
        s.ns(k)(q) += tracer.nanos(i); s.calls(k)(q) += 1; s.pts(k)(q) += tracer.pointsOf(i)
        if ((k == Tracer.Snapshot || k == Tracer.Select) && tracer.parent(i) >= 0) {
          val pk = kindOf(tracer.parent(i))
          s.storeNsUnder(pk)(q) += tracer.nanos(i)
          if (k == Tracer.Select) s.selectsUnder(pk)(q) += 1
        }
      }
      i += 1
    }
    s
  }

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  private def layerMetrics(tracer: Tracer, records: Vector[QueryRecord], ingestNs: Long, diskBytes: Long,
                           storeHeap: Long, totalPoints: Long): Seq[(String, Double, String)] = {
    import Tracer._
    val nq = records.length
    val s = sums(tracer, nq)
    def perQuery(v: Double): Double = ratio(v, nq)
    def us(kind: Int): Double = perQuery(s.total(s.ns, kind) / 1e3)
    def selfUs(kinds: Int*): Double = perQuery(kinds.map(k => s.total(s.ns, k) - s.total(s.storeNsUnder, k)).sum / 1e3)
    def card(f: TracedPipeline.Cards => Long): Double = perQuery(records.map(r => f(r.cards)).sum.toDouble)
    def pooled(num: TracedPipeline.Cards => Long, den: TracedPipeline.Cards => Long): Double =
      ratio(records.map(r => num(r.cards)).sum.toDouble, records.map(r => den(r.cards)).sum.toDouble)

    val storeNs = s.total(s.ns, Snapshot) + s.total(s.ns, Select)
    val returned = s.total(s.pts, Snapshot) + s.total(s.pts, Select)
    val read = records.map(_.pointsRead).sum
    val tracedNs = s.total(s.ns, Query)
    val untracedNs = records.map(_.untracedNs).sum
    Seq(
      ("store.snapshot_calls", perQuery(s.total(s.calls, Snapshot).toDouble), "count"),
      ("store.snapshot_points", perQuery(s.total(s.pts, Snapshot).toDouble), "count"),
      ("store.snapshot_ns_per_point", ratio(s.total(s.ns, Snapshot).toDouble, s.total(s.pts, Snapshot).toDouble), "ns"),
      ("store.select_calls", perQuery(s.total(s.calls, Select).toDouble), "count"),
      ("store.select_points", perQuery(s.total(s.pts, Select).toDouble), "count"),
      ("store.select_us_per_call", ratio(s.total(s.ns, Select) / 1e3, s.total(s.calls, Select).toDouble), "us"),
      ("store.time_share", ratio(storeNs.toDouble, tracedNs.toDouble), "ratio"),
      // A store that charges no reads per call (FileStore serves its
      // in-memory image) over-fetches nothing: ratio 1.
      ("store.useful_read_ratio", if (read == 0) 1.0 else ratio(returned.toDouble, read.toDouble), "ratio"),
      ("store.ingest_ns_per_point", ratio(ingestNs.toDouble, totalPoints.toDouble), "ns"),
      ("lsm.disk_bytes_per_point", ratio(diskBytes.toDouble, totalPoints.toDouble), "bytes"),
      ("store.heap_mb", mb(storeHeap), "MB"),
      ("dbscan.bench_calls", perQuery(s.total(s.calls, Dbscan).toDouble), "count"),
      ("dbscan.bench_points", perQuery(s.total(s.pts, Dbscan).toDouble), "count"),
      ("dbscan.bench_ns_per_point", ratio(s.total(s.ns, Dbscan).toDouble, s.total(s.pts, Dbscan).toDouble), "ns"),
      ("phase.benchmark_us", us(Benchmark), "us"),
      ("phase.candidates_us", us(Candidates), "us"),
      ("phase.hwmt_us", us(Hwmt), "us"),
      ("phase.merge_us", us(Merge), "us"),
      ("phase.extend_right_us", us(ExtendRight), "us"),
      ("phase.extend_left_us", us(ExtendLeft), "us"),
      ("phase.validate_us", us(Validate), "us"),
      ("hwmt.self_us", selfUs(Hwmt), "us"),
      ("extend.self_us", selfUs(ExtendRight, ExtendLeft), "us"),
      ("validate.self_us", selfUs(Validate), "us"),
      ("hwmt.select_calls", perQuery(s.total(s.selectsUnder, Hwmt).toDouble), "count"),
      ("extend.select_calls", perQuery((s.total(s.selectsUnder, ExtendRight) + s.total(s.selectsUnder, ExtendLeft)).toDouble), "count"),
      ("validate.select_calls", perQuery(s.total(s.selectsUnder, Validate).toDouble), "count"),
      ("card.benchmark_clusters", card(_.benchmarkClusters), "count"),
      ("card.candidate_clusters", card(_.candidateClusters), "count"),
      ("card.spanning", card(_.spanning), "count"),
      ("card.maximal_spanning", card(_.maximalSpanning), "count"),
      ("card.pre_validation", card(_.preValidation), "count"),
      ("card.convoys", card(_.convoys), "count"),
      ("candidates.kept_ratio", pooled(_.candidateClusters, _.pairsTried), "ratio"),
      ("hwmt.survival_ratio", pooled(_.spanning, _.candidateClusters), "ratio"),
      ("validate.fc_ratio", pooled(_.convoys, _.preValidation), "ratio"),
      ("trace.overhead_pct", 100.0 * (ratio(tracedNs.toDouble, untracedNs.toDouble) - 1), "%"),
    )
  }

  /** The layer-probe table: per query of the mix, mean untraced and traced
    * query time and the traced time spent in store snapshots and selects.
    */
  private def writeProbeTable(args: Args, tracer: Tracer, records: Vector[QueryRecord]): Unit = {
    val s = sums(tracer, records.length)
    val w = args.workload
    def ms(ns: Iterable[Long]): String = if (ns.isEmpty) "-" else "%.1f".format(ns.sum / 1e6 / ns.size)
    val rows = w.queries.map { q =>
      val idx = records.indices.filter(records(_).q == q)
      s"| ${q.m} | ${q.k} | ${q.eps} | ${idx.length} | ${ms(idx.map(records(_).untracedNs))} | " +
        s"${ms(idx.map(s.ns(Tracer.Query)(_)))} | ${ms(idx.map(s.ns(Tracer.Snapshot)(_)))} | ${ms(idx.map(s.ns(Tracer.Select)(_)))} |"
    }
    val lines = Vector(
      s"# Layer probe: ${w.name}",
      "",
      s"Written by the traced run (`--trace 1`) of `${w.name}`, seed ${args.seed}, " +
        s"on ${Runtime.getRuntime.availableProcessors()} cores. Times are ms, means over the timed sweeps; " +
        "snapshot and select are the store's share of the traced time.",
      "",
      "| m | k | eps | runs | untraced total | traced total | snapshot | select |",
      "|---|---|---|---|---|---|---|---|",
    ) ++ rows
    val file = args.benchDir.resolve("results").resolve(s"layer-probe-${w.name}.md")
    Files.createDirectories(file.getParent)
    Files.write(file, lines.asJava, UTF_8)
    ()
  }
}
