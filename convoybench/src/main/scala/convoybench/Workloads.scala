package convoybench

import java.nio.file.{Files, Path}

import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.{FileStore, LsmStore, RdbmsStore, TrajData, TrajectoryStore}

/** A generated dataset: a `TrajGen` preset at a fixed scale, seeded by the
  * benchmark's `--seed`.
  */
final case class Dataset(name: String, defaultSeed: Long, gen: Long => TrajData)

object Dataset {
  val Brinkhoff: Dataset = Dataset("brinkhoff-x2", 13, seed => TrajGen.brinkhoffLite(2.0, seed))
  val TDrive: Dataset = Dataset("tdrive-x2", 11, seed => TrajGen.tdriveLite(2.0, seed))
}

/** How a workload builds its store. `create` is the timed set-up; `dir` is a
  * fresh directory inside the benchmark's work area for on-disk stores.
  * `queryProbe` reads the host's speed at the work the store's queries
  * spend their time on; the run closes it.
  */
sealed trait StoreKind {
  def name: String
  def create(data: TrajData, dir: Path): TrajectoryStore
  def queryProbe(): HostProbe = CpuProbe
}

object StoreKind {
  case object Lsm extends StoreKind {
    val name = "lsm"
    def create(data: TrajData, dir: Path): TrajectoryStore = LsmStore.create(data, dir)
  }
  case object Rdbms extends StoreKind {
    val name = "rdbms"
    def create(data: TrajData, dir: Path): TrajectoryStore = RdbmsStore.create(data)
    override def queryProbe(): HostProbe = new DuckDbProbe
  }
  case object File extends StoreKind {
    val name = "file"
    def create(data: TrajData, dir: Path): TrajectoryStore =
      FileStore.create(data, Files.createDirectories(dir).resolve("traj.bin"))
  }
}

/** One workload: a store loaded once from one dataset, then a closed loop
  * of one client cycling through `queries`.
  */
final case class Workload(name: String, dataset: Dataset, store: StoreKind, queries: Vector[Params])

object Workloads {
  private def grid(ks: Seq[Int], epss: Seq[Double]): Vector[Params] =
    (for (eps <- epss; k <- ks) yield Params(3, k, eps)).toVector

  val all: Vector[Workload] = Vector(
    // Store-bound: LSM range scans for benchmark snapshots and one get per
    // (t, oid); the insert path (flushes, compactions) is the set-up.
    Workload("lsm-brinkhoff", Dataset.Brinkhoff, StoreKind.Lsm, grid(Seq(20, 40, 80), Seq(25.0))),
    // Store-bound by per-call JDBC round trips; validation-heavy at k=20.
    Workload("rdbms-tdrive", Dataset.TDrive, StoreKind.Rdbms, grid(Seq(20, 40), Seq(25.0))),
    // Store cost near zero, so clustering, HWMT, set algebra and validation
    // dominate; eps=50, k=20 is the validation-heavy query.
    Workload("file-brinkhoff", Dataset.Brinkhoff, StoreKind.File, grid(Seq(20, 40, 80), Seq(25.0, 50.0))),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
