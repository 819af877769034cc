package repro.spare

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.collection.mutable

import repro.core.{Convoy, ConvoySets, ObjSets, PhaseTimer, RunReport}
import repro.core.KHalfHop.Params
import repro.spark.Frames

/** The SPARE framework (Fan et al., PVLDB'17) — the state-of-the-art
  * parallel baseline of §6 — specialized to the convoy pattern, on Spark.
  *
  * Two pipelined stages, as in the original:
  *
  *   - **Stage 1 (snapshot clustering)**: timestamp is the key; every
  *     snapshot is DBSCAN-clustered in the reducers (`groupByKey(t)` +
  *     `mapGroups`). This stage touches every point of the dataset — the
  *     cost the paper criticizes SPARE for treating as "preprocessing".
  *   - **Stage 2 (star partitioning + apriori enumerator)**: for each
  *     cluster and each member `o`, emit `o → {o' > o}` co-clustering
  *     edges with their timestamps; group by star vertex; inside each star,
  *     depth-first apriori enumeration grows object sets in id order,
  *     pruning branches whose timestamp intersection no longer contains a
  *     run of ≥ k consecutive timestamps (the monotone forward-closure
  *     pruning of SPARE). Because snapshot clusters are disjoint, pairwise
  *     co-clustering with the star vertex implies the whole set shares one
  *     cluster, so the enumeration is exact for convoys.
  *
  * Output: maximal (partially connected) convoys of length ≥ k — the same
  * mining semantics as PCCD, which the tests assert.
  */
object SPARE {

  /** The sorted maximal convoys and the run's report: phases `stage1`
    * (output: snapshot clusters) and `stage2` (output: convoys), and the
    * points the stage-1 reducers clustered.
    */
  def run(spark: SparkSession, df: DataFrame, p: Params): (Vector[Convoy], RunReport) = {
    import spark.implicits._
    val eps = p.eps; val m = p.m; val k = p.k
    val timer = new PhaseTimer

    // Stage 1: cluster every snapshot.
    val (snapshotClusters, sizes) = timer.phase("stage1") {
      val clustered = Frames.clusterSnapshots(df, eps, m).persist()
      // (points, clusters) per snapshot; collecting them forces stage 1.
      (clustered, clustered.map(r => (r._3.toLong, r._2.length.toLong)).collect())
    }(_._2.iterator.map(_._2).sum)

    // Stage 2: star partitioning.
    val result = timer.phase("stage2") {
      val stars = snapshotClusters
        .flatMap { case (t, clusters, _) =>
          clusters.iterator.flatMap { c =>
            c.iterator.flatMap(o => c.iterator.filter(_ > o).map(o2 => (o, o2, t)))
          }
        }
        .groupByKey(_._1)
        .mapGroups { (star, edges) =>
          val byNeighbor = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
          edges.foreach { case (_, o2, t) => byNeighbor.getOrElseUpdate(o2, mutable.ArrayBuffer.empty) += t }
          val convoys = enumerateStar(star, byNeighbor.map { case (o, ts) => o -> ts.toArray.sorted }.toMap, m, k)
          convoys.map(c => (c.objs.toSeq, c.ts, c.te))
        }
        .collect()
      ConvoySets.maximal(stars.iterator.flatten.map { case (o, a, b) => Convoy(ObjSets.of(o), a, b) }.toVector)
    }(_.length)
    snapshotClusters.unpersist()

    (ConvoySets.sorted(result), timer.report(sizes.iterator.map(_._1).sum))
  }

  /** Apriori enumeration inside one star: grow `{star} ∪ S` with neighbors
    * in ascending id order; the candidate's valid timestamps are the
    * intersection of the members' co-clustering timestamps with the star.
    * A branch dies when no run of ≥ k consecutive timestamps remains
    * (monotone, so pruning is safe). Emits a convoy per maximal run of each
    * *locally maximal* set (sets whose every extension loses the run).
    */
  private[spare] def enumerateStar(
      star: Int,
      neighbors: Map[Int, Array[Int]],
      m: Int,
      k: Int,
  ): Vector[Convoy] = {
    val out = Vector.newBuilder[Convoy]
    val ids = neighbors.keys.toArray.sorted

    def runs(ts: Array[Int]): Vector[(Int, Int)] = {
      val rs = Vector.newBuilder[(Int, Int)]
      var i = 0
      while (i < ts.length) {
        var j = i
        while (j + 1 < ts.length && ts(j + 1) == ts(j) + 1) j += 1
        if (j - i + 1 >= k) rs += ((ts(i), ts(j)))
        i = j + 1
      }
      rs.result()
    }

    def intersectSorted(a: Array[Int], b: Array[Int]): Array[Int] = {
      val outB = new mutable.ArrayBuilder.ofInt
      var i = 0; var j = 0
      while (i < a.length && j < b.length) {
        if (a(i) == b(j)) { outB += a(i); i += 1; j += 1 }
        else if (a(i) < b(j)) i += 1
        else j += 1
      }
      outB.result()
    }

    def dfs(chosen: List[Int], ts: Array[Int], from: Int): Unit = {
      val viable = runs(ts)
      if (viable.isEmpty) return
      var i = from
      while (i < ids.length) {
        val cand = ids(i)
        val nts = intersectSorted(ts, neighbors(cand))
        if (runs(nts).nonEmpty) dfs(cand :: chosen, nts, i + 1)
        i += 1
      }
      // Emit when the set meets the size bound; non-maximal emissions are
      // removed by the global maximality filter (an extension may shrink the
      // time runs, so supersets do not always cover this set's runs).
      if (chosen.size + 1 >= m) {
        val objs = ObjSets.of(star :: chosen)
        viable.foreach { case (s, e) => out += Convoy(objs, s, e) }
      }
    }

    dfs(Nil, neighbors.values.foldLeft(Set.empty[Int])(_ ++ _).toArray.sorted, 0)
    out.result()
  }
}
