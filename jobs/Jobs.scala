package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.Experiments

/** Shared session builder for the spark-submit entrypoints. */
private[jobs] object JobSession {
  def local(): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("k2hop-repro")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Bench-scale factors per dataset (override all with K2_SCALE). */
  def scales: Map[String, Double] =
    sys.env.get("K2_SCALE") match {
      case Some(s) => Map.empty[String, Double].withDefaultValue(s.toDouble)
      case None    => Experiments.BenchScales
    }
}

/** Table 4: Brinkhoff(-lite) dataset properties. */
object Table4Job {
  def main(args: Array[String]): Unit = { Experiments.table4(); () }
}

/** Table 5: k/2-hop data pruning performance across the (m,k,eps) grid. */
object Table5Job {
  def main(args: Array[String]): Unit = { Experiments.table5(JobSession.scales); () }
}

/** Fig 7a/7b: gain of k2-RDBMS/k2-LSMT over VCoDA* per dataset. */
object GainOverVCoDAJob {
  def main(args: Array[String]): Unit = {
    val scales = JobSession.scales
    Seq("Trucks", "T-Drive").foreach(n => Experiments.gainOverVCoDA(n, scales(n)))
  }
}

/** Fig 7h/8a/8b: effect of k per dataset. */
object EffectOfKJob {
  def main(args: Array[String]): Unit = { Experiments.effectOf(Experiments.EffectOfK, JobSession.scales); () }
}

/** Fig 8c/8d/8e: effect of m per dataset. */
object EffectOfMJob {
  def main(args: Array[String]): Unit = { Experiments.effectOf(Experiments.EffectOfM, JobSession.scales); () }
}

/** Fig 8f/8g/8h: effect of eps per dataset. */
object EffectOfEpsJob {
  def main(args: Array[String]): Unit = { Experiments.effectOf(Experiments.EffectOfEps, JobSession.scales); () }
}

/** Fig 8i/8j: phase breakdown and pre-validation convoy counts. */
object PhaseBreakdownJob {
  def main(args: Array[String]): Unit = {
    Experiments.phasesAndPreValidation("T-Drive", JobSession.scales("T-Drive")); ()
  }
}

/** Fig 8k: effect of the number of convoys in the data. */
object ConvoyCountJob {
  def main(args: Array[String]): Unit = { Experiments.convoyCount(); () }
}

/** Fig 8l: data size scalability on growing Brinkhoff-lite datasets. */
object ScalabilityJob {
  def main(args: Array[String]): Unit = { Experiments.scalability(); () }
}

/** Fig 7d: gain over the SPARE framework (Spark local[*]). */
object GainOverSpareJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local()
    try Experiments.gainOverSpark(spark, Experiments.Spare, JobSession.scales)
    finally spark.stop()
  }
}

/** Fig 7g: gain over DCM (Spark local[*]). */
object GainOverDcmJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local()
    try Experiments.gainOverSpark(spark, Experiments.Dcm, JobSession.scales)
    finally spark.stop()
  }
}

/** Convenience: run every experiment in sequence (the full §6 suite). */
object AllExperimentsJob {
  def main(args: Array[String]): Unit = {
    Table4Job.main(args)
    Table5Job.main(args)
    GainOverVCoDAJob.main(args)
    EffectOfKJob.main(args)
    EffectOfMJob.main(args)
    EffectOfEpsJob.main(args)
    PhaseBreakdownJob.main(args)
    ConvoyCountJob.main(args)
    ScalabilityJob.main(args)
    GainOverSpareJob.main(args)
    GainOverDcmJob.main(args)
  }
}
