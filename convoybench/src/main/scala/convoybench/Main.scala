package convoybench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import repro.core.{Convoy, KHalfHop}
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.{TrajData, TrajectoryStore}

/** The convoy-mining benchmark.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --bench-dir <dir> --work-dir <dir>
  * Main --references --workload <name> --seed <n> --bench-dir <dir> --work-dir <dir>
  * }}}
  *
  * One JVM, one client thread, closed loop: the workload's store is built
  * from a dataset generated from `--seed`, then its query list is cycled for
  * `--seconds` and every answer is checked against the stored VCoDA*
  * reference. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
  * the traced pipeline and reports per-layer metrics. Standard output holds
  * the run stamp, one line per metric and, last, the JSON result;
  * everything else goes to standard error.
  *
  * `--references` mines and stores the reference answers for the seed.
  */
object Main {

  final case class Args(
      workload: Workload,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      benchDir: Path,
      workDir: Path,
      references: Boolean,
  )

  /** An end-to-end run sets the store up at least `MinSetups` times and
    * until `MinSetupSeconds` of set-up were timed; `setup_s` is the median.
    */
  val MinSetups = 3
  val MinSetupSeconds = 2.0

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList).fold(
      err => { System.err.println(s"convoybench: $err"); sys.exit(2) },
      identity,
    )
    val code =
      try {
        if (args.references) writeReferences(args)
        else if (args.trace) TracedRun.run(args)
        else endToEnd(args)
        0
      } catch {
        case NonFatal(e) =>
          System.err.println(s"convoybench: run failed: $e")
          e.printStackTrace()
          1
      }
    sys.exit(code)
  }

  def parse(argv: List[String]): Either[String, Args] = {
    def go(rest: List[String], kv: Map[String, String]): Either[String, Map[String, String]] = rest match {
      case Nil                             => Right(kv)
      case "--references" :: tail          => go(tail, kv + ("references" -> "1"))
      case flag :: value :: tail if flag.startsWith("--") => go(tail, kv + (flag.drop(2) -> value))
      case other :: _                      => Left(s"unexpected argument '$other'")
    }
    for {
      kv <- go(argv, Map.empty)
      wName <- kv.get("workload").toRight("--workload is required")
      w <- Workloads.byName(wName).toRight(s"unknown workload '$wName' (${Workloads.all.map(_.name).mkString(", ")})")
      seed <- kv.get("seed").map(s => s.toLongOption.toRight(s"bad --seed '$s'")).getOrElse(Right(w.dataset.defaultSeed))
      seconds <- kv.getOrElse("seconds", "10").toIntOption.filter(_ > 0).toRight("--seconds must be a positive integer")
      trace <- kv.getOrElse("trace", "0") match {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"--trace must be 0 or 1, not '$t'")
      }
      benchDir <- kv.get("bench-dir").toRight("--bench-dir is required")
      workDir <- kv.get("work-dir").toRight("--work-dir is required")
    } yield Args(w, seed, seconds, trace, Paths.get(benchDir), Paths.get(workDir), kv.contains("references"))
  }

  private def writeReferences(args: Args): Unit = {
    val ds = args.workload.dataset
    val file = References.path(args.benchDir, ds, args.seed)
    val stored = References.load(file)
    val missing = args.workload.queries.filterNot(stored.contains)
    val data = ds.gen(args.seed)
    References.write(file, stored ++ References.mine(data, missing))
    System.err.println(s"convoybench: $file: mined ${missing.length} queries, ${stored.size} already stored")
  }

  // --- shared by both kinds of run ----------------------------------------

  /** Everything a run needs before its store exists. */
  final case class Prepared(data: TrajData, answers: References.Answers)

  /** Generate the input, resolve the reference answers and load the classes
    * and native libraries of the store and miner on a small dataset, so that
    * neither set-up time nor the heap baseline pays for them.
    */
  def prepare(args: Args): Prepared = {
    val w = args.workload
    val data = w.dataset.gen(args.seed)
    val (answers, live) = References.resolve(args.benchDir, w.dataset, args.seed, data, w.queries)
    stamp(args, data, live)
    val small = TrajGen.trucksLite(0.3)
    val s = w.store.create(small, freshDir(args, "warm"))
    try w.queries.foreach(q => KHalfHop.run(s, q))
    finally s.close()
    Prepared(data, answers)
  }

  private def stamp(args: Args, data: TrajData, liveRefs: Int): Unit = {
    val objects = data.byTime.iterator.flatMap(_.iterator.map(_.oid)).toSet.size
    val nproc = Runtime.getRuntime.availableProcessors()
    val fields = Seq(
      "workload" -> args.workload.name,
      "seed" -> args.seed,
      "trace" -> (if (args.trace) 1 else 0),
      "nproc" -> nproc,
      "jvm" -> System.getProperty("java.vm.version"),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory() / (1 << 20),
      "points" -> data.totalPoints,
      "objects" -> objects,
      "timestamps" -> data.byTime.length,
      "client_threads" -> 1,
      "duckdb_threads" -> s"nproc($nproc)",
      "queries_in_mix" -> args.workload.queries.length,
      "references_mined_live" -> liveRefs,
    )
    println("stamp " + fields.map { case (k, v) => s"$k=$v" }.mkString(" "))
  }

  private var dirs = 0

  /** A new, empty directory under the work area for one store. */
  def freshDir(args: Args, label: String): Path = {
    dirs += 1
    val d = args.workDir.resolve("stores").resolve(s"$label-$dirs")
    Files.createDirectories(d)
  }

  /** True iff `got` is exactly the reference answer. */
  def matches(got: Vector[Convoy], want: Vector[Convoy]): Boolean =
    got.length == want.length && got.toSet == want.toSet

  def describe(q: Params): String = s"m=${q.m} k=${q.k} eps=${q.eps}"

  /** Run whole sweeps of `queries` until `seconds` have passed (at least one
    * sweep); `each` runs one query.
    */
  def sweepFor(seconds: Double, queries: Vector[Params])(each: Params => Unit): Unit = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var first = true
    while (first || System.nanoTime() < deadline) {
      queries.foreach(each)
      first = false
    }
  }

  /** Live heap bytes: the heap pools' usage right after a full collection
    * (current usage would also count the allocation buffers threads hold).
    * Collects until the reading settles, so objects that wait on finalizers
    * or cleaners are gone too.
    */
  def liveHeapBytes(): Long = {
    def collect(): Long = {
      System.gc()
      ManagementFactory.getMemoryPoolMXBeans.asScala.iterator
        .filter(_.getType == MemoryType.HEAP)
        .flatMap(p => Option(p.getCollectionUsage))
        .map(_.getUsed)
        .sum
    }
    var prev = collect()
    var cur = prev
    var rounds = 0
    do {
      System.runFinalization()
      Thread.sleep(20)
      prev = cur
      cur = collect()
      rounds += 1
    } while (rounds < 10 && prev - cur > (64 << 10))
    cur
  }

  def mb(bytes: Long): Double = bytes / (1024.0 * 1024.0)

  /** Print one metric line to standard output. */
  def metricLine(w: Workload, name: String, value: Double, unit: String, note: String = ""): Unit =
    println(s"${w.name} $name ${fmt(value)} $unit${if (note.isEmpty) "" else s"  # $note"}")

  def fmt(v: Double): String = java.lang.Double.toString(v)

  /** The result line: the last line of standard output. */
  def resultJson(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) =>
      require(!v.isNaN && !v.isInfinite, s"metric $n is $v")
      s""""$n": {"value": ${fmt(v)}, "unit": "$u"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  // --- end-to-end run -----------------------------------------------------

  private def endToEnd(args: Args): Unit = {
    val w = args.workload
    val Prepared(data, answers) = prepare(args)

    // Allocated before the heap baseline so the samples are not charged to
    // the store.
    val sampleNs = new Array[Long](1 << 16)
    val sampleScale = new Array[Double](1 << 16)
    val sampleQuery = new Array[Int](1 << 16)
    val probes = new Array[Double](1 << 16)
    var n = 0
    val probe = w.store.queryProbe()
    CpuProbe.warmUp()
    probe.warmUp()
    val heap0 = liveHeapBytes()

    // Every set-up but the last is closed and dropped at once, so the heap
    // reading at the end sees one store.
    var store: TrajectoryStore = null
    // Each set-up is scaled like a query, by the CPU probes on either side:
    // a set-up is bulk work, not round trips.
    val setupSeconds, wallSetupSeconds = ArrayBuffer.empty[Double]
    while (wallSetupSeconds.length < MinSetups || wallSetupSeconds.sum < MinSetupSeconds) {
      if (store != null) store.close()
      store = null
      val dir = freshDir(args, w.store.name)
      val before = CpuProbe.probeMs()
      val t0 = System.nanoTime()
      store = w.store.create(data, dir)
      wallSetupSeconds += (System.nanoTime() - t0) / 1e9
      setupSeconds += wallSetupSeconds.last * CpuProbe.scale((before + CpuProbe.probeMs()) / 2)
    }

    var attempted = 0L
    var failed = 0L
    val processed = scala.collection.mutable.LinkedHashMap.empty[Params, Long]
    def query(q: Params): Long = {
      val t0 = System.nanoTime()
      val ok =
        try {
          val (convoys, stats) = KHalfHop.run(store, q)
          val pp = processed.getOrElseUpdate(q, stats.pointsProcessed)
          val good = matches(convoys, answers(q)) && pp == stats.pointsProcessed
          if (!good) System.err.println(s"convoybench: wrong answer for ${describe(q)}: ${convoys.length} convoys, " +
            s"${answers(q).length} expected; pointsProcessed ${stats.pointsProcessed} (first run $pp)")
          good
        } catch {
          case NonFatal(e) => System.err.println(s"convoybench: ${describe(q)} threw $e"); false
        }
      attempted += 1
      if (!ok) failed += 1
      System.nanoTime() - t0
    }

    try {
      // The workload's probe runs between queries, in the warm-up too, and
      // each query is scaled by the mean of the probes on either side of it.
      sweepFor(args.seconds / 2.0, w.queries) { q => probe.probeMs(); query(q) }
      var before = probe.probeMs()
      sweepFor(args.seconds, w.queries) { q =>
        val ns = query(q)
        val after = probe.probeMs()
        if (n < sampleNs.length) {
          sampleNs(n) = ns; sampleScale(n) = probe.scale((before + after) / 2)
          sampleQuery(n) = w.queries.indexOf(q); probes(n) = after; n += 1
        }
        before = after
      }
      val heap1 = liveHeapBytes()

      val wallMs = sampleNs.iterator.take(n).map(_ / 1e6).toVector
      val ms = wallMs.indices.map(i => wallMs(i) * sampleScale(i)).toVector
      def perQuery(xs: Vector[Double]) = w.queries.indices.map(i => Stats.median(xs.indices.filter(sampleQuery(_) == i).map(xs)))
      // Geometric mean, so a given relative change in any query of the mix
      // moves it equally, however long that query runs.
      def geoMean(xs: Seq[Double]) = math.exp(xs.map(math.log).sum / xs.length)
      val p50 = geoMean(perQuery(ms))
      // Throughput of the median whole sweep, so one slow sweep (a
      // collection, a burst on the host) does not move it.
      def sweepQps(xs: Vector[Double]) = w.queries.length / (Stats.median(xs.grouped(w.queries.length).map(_.sum).toSeq) / 1e3)
      val sweeps = n / w.queries.length
      val qps = sweepQps(ms)
      val wallP50 = geoMean(perQuery(wallMs))
      val wallQps = sweepQps(wallMs)
      val probeMs = Stats.median(probes.iterator.take(n).toSeq)
      val setupS = Stats.median(setupSeconds.toSeq)
      val ppPct = w.queries.map(q => 100.0 * processed.getOrElse(q, 0L) / data.totalPoints).sum / w.queries.length
      val failedPct = 100.0 * failed / attempted

      w.queries.zip(perQuery(ms)).foreach { case (q, m) =>
        metricLine(w, s"query_ms_p50[k=${q.k},eps=${q.eps}]", m, "ms", s"median of ${n / w.queries.length} runs")
      }
      metricLine(w, "query_ms_p50", p50, "ms", s"geometric mean over the mix of each query's median; $n queries")
      Stats.tailPercentile(n) match {
        case Some(p) if p >= 90 => metricLine(w, "query_ms_p90", Stats.percentile(ms, 90), "ms", s"$n queries")
        case Some(p) => println(s"${w.name} query_ms_p90 n/a ms  # $n queries: the highest percentile with " +
            s"10 beyond is p${"%.1f".format(p)} = ${fmt(Stats.percentile(ms, p))} ms")
        case None => println(s"${w.name} query_ms_p90 n/a ms  # only $n queries")
      }
      metricLine(w, "queries_per_s", qps, "1/s", s"median over $sweeps sweeps of ${w.queries.length} queries")
      metricLine(w, "wall_query_ms_p50", wallP50, "ms", "query_ms_p50 unscaled")
      metricLine(w, "wall_queries_per_s", wallQps, "1/s", "queries_per_s unscaled")
      metricLine(w, "host_probe_ms", probeMs, "ms",
        s"median ${probe.getClass.getSimpleName.stripSuffix("$")} time between queries; reference speed is ${probe.referenceMs} ms")
      metricLine(w, "setup_s", setupS, "s", s"median of ${setupSeconds.map("%.3f".format(_)).mkString(", ")}")
      metricLine(w, "wall_setup_s", Stats.median(wallSetupSeconds.toSeq), "s",
        s"setup_s unscaled: median of ${wallSetupSeconds.map("%.3f".format(_)).mkString(", ")}")
      metricLine(w, "heap_mb", mb(heap1), "MB", "live JVM heap at the end: input, store and caches")
      metricLine(w, "store_heap_mb", mb(heap1 - heap0), "MB", "the store's share: heap_mb minus the heap before set-up")
      metricLine(w, "points_processed_pct", ppPct, "%",
        w.queries.map(q => s"k=${q.k},eps=${q.eps}:${processed.getOrElse(q, 0L)}").mkString(" ") + s" of ${data.totalPoints}")
      metricLine(w, "failed_query_pct", failedPct, "%", s"$failed of $attempted")

      println(resultJson(failed == 0, attempted, failed, Seq(
        ("query_ms_p50", p50, "ms"),
        ("queries_per_s", qps, "1/s"),
        ("setup_s", setupS, "s"),
        ("heap_mb", mb(heap1), "MB"),
        ("points_processed_pct", ppPct, "%"),
      )))
    } finally { store.close(); probe.close() }
  }
}
