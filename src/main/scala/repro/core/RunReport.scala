package repro.core

/** What one mining run reports, for every miner, single-JVM or Spark: its
  * phases in pipeline order and the points fed to DBSCAN (the pruning
  * statistic of Table 5). Each phase carries its wall time in µs (Figure 8i)
  * and its output size: clusters, candidates or convoys. The k/2-hop
  * pre-validation count of Figure 8j, for example, is the output of `extL`.
  */
final case class RunReport(phases: Vector[RunReport.Phase], pointsProcessed: Long) {

  /** Wall time of the whole run in µs: the sum of its phases. */
  def totalUs: Long = phases.iterator.map(_.us).sum

  /** The phase named `name`. */
  def apply(name: String): RunReport.Phase =
    phases.find(_.name == name).getOrElse(throw new NoSuchElementException(s"no phase $name in $phases"))

  /** Convoys found: the output of the last phase. */
  def convoys: Long = phases.last.out

  /** Candidates handed to validation (Figure 8j): the output of the phase
    * before `val`.
    */
  def preValidationConvoys: Long = {
    val v = phases.indexWhere(_.name == "val")
    require(v > 0, s"no phase before val in $phases")
    phases(v - 1).out
  }

  /** k/2-hop candidate clusters (Lemma 5) and spanning convoys (HWMT). */
  def candidateClusters: Long = apply("cc").out
  def spanningConvoys: Long = apply("hwmt").out
}

object RunReport {
  final case class Phase(name: String, us: Long, out: Long)
}

/** Times the phases of one run, in the order they run, and builds its
  * [[RunReport]].
  */
final class PhaseTimer {
  private val phases = Vector.newBuilder[RunReport.Phase]

  /** Run `body` as the phase `name`; `size` gives the output size of its
    * result.
    */
  def phase[A](name: String)(body: => A)(size: A => Long): A = {
    val t0 = System.nanoTime()
    val r = body
    phases += RunReport.Phase(name, (System.nanoTime() - t0) / 1000L, size(r))
    r
  }

  def report(pointsProcessed: Long): RunReport = RunReport(phases.result(), pointsProcessed)
}
