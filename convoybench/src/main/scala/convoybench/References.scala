package convoybench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.util.concurrent.Executors

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import repro.baseline.VCoDA
import repro.core.{Convoy, ObjSets}
import repro.core.KHalfHop.Params
import repro.store.{MemStore, TrajData}

/** Reference answers: the maximal fully connected convoys of each query,
  * mined by VCoDA* (`VCoDA.run(indexed = true)` over a `MemStore`).
  *
  * They are stored with the benchmark, one file per (dataset, seed), because
  * VCoDA* shares DBSCAN and validation with k/2-hop: a reference mined live
  * by the commit under test could move together with a broken change. Only
  * queries without a stored answer are mined live, before any timing.
  *
  * File format, one record per line:
  * {{{
  * query <m> <k> <eps>
  * convoy <ts> <te> <oid>,<oid>,...
  * }}}
  * Convoy lines belong to the query line above them.
  */
object References {
  type Answers = Map[Params, Vector[Convoy]]

  def path(benchDir: Path, ds: Dataset, seed: Long): Path =
    benchDir.resolve("references").resolve(ds.name).resolve(s"seed-$seed.txt")

  def load(file: Path): Answers =
    if (!Files.exists(file)) Map.empty
    else {
      val out = Map.newBuilder[Params, Vector[Convoy]]
      var cur: Option[(Params, ArrayBuffer[Convoy])] = None
      def close(): Unit = cur.foreach { case (q, b) => out += q -> b.toVector }
      Files.readAllLines(file, UTF_8).asScala.map(_.trim).filter(_.nonEmpty).foreach { line =>
        line.split(' ') match {
          case Array("query", m, k, eps) =>
            close(); cur = Some((Params(m.toInt, k.toInt, eps.toDouble), ArrayBuffer.empty[Convoy]))
          case Array("convoy", ts, te, oids) if cur.isDefined =>
            cur.get._2 += Convoy(ObjSets.of(oids.split(',').map(_.toInt)), ts.toInt, te.toInt)
          case _ => throw new IllegalArgumentException(s"$file: bad line '$line'")
        }
      }
      close()
      out.result()
    }

  def write(file: Path, answers: Answers): Unit = {
    val lines = answers.toVector.sortBy { case (q, _) => (q.eps, q.k, q.m) }.flatMap { case (q, cs) =>
      s"query ${q.m} ${q.k} ${q.eps}" +: cs.map(c => s"convoy ${c.ts} ${c.te} ${c.objs.mkString(",")}")
    }
    Files.createDirectories(file.getParent)
    Files.write(file, lines.asJava, UTF_8)
    ()
  }

  /** Mine the answers with VCoDA*, one query per thread on up to
    * nproc - 1 threads; this runs before anything is timed.
    */
  def mine(data: TrajData, queries: Seq[Params]): Answers =
    if (queries.isEmpty) Map.empty
    else {
      val threads = math.max(1, math.min(queries.length, Runtime.getRuntime.availableProcessors() - 1))
      val pool = Executors.newFixedThreadPool(threads)
      try {
        val pending = queries.map(q => q -> pool.submit(() => VCoDA.run(new MemStore(data), q, indexed = true).convoys))
        pending.map { case (q, f) => q -> f.get() }.toMap
      } finally pool.shutdownNow()
    }

  /** Answers for every query: stored ones where present, the rest mined
    * live. Also returns how many were mined live.
    */
  def resolve(benchDir: Path, ds: Dataset, seed: Long, data: TrajData, queries: Seq[Params]): (Answers, Int) = {
    val stored = load(path(benchDir, ds, seed))
    val missing = queries.filterNot(stored.contains)
    (stored ++ mine(data, missing), missing.length)
  }
}
