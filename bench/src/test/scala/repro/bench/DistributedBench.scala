package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Fig 7d: k/2-hop (sequential, one core) vs the SPARE framework running on
  * Spark local[*] — the paper's "single machine" comparison.
  */
class F7d_GainOverSpareBench extends BenchBase with SparkSpec {
  test("gain over SPARE") {
    warmup()
    val out = Experiments.gainOverSpark(spark, Experiments.Spare, Experiments.BenchScales)
    record("f7d_gain_spare", out)
    val gains = out.linesIterator.filter(_.startsWith("RESULT|F7d|"))
      .map(r => "gain=\\s*([0-9.]+)".r.findFirstMatchIn(r).get.group(1).toDouble).toSeq
    assert(gains.size == 3)
    // Shape: the sequential k/2-hop beats the parallel SPARE on every dataset
    // (orders of magnitude in the paper; at least >1 here).
    assert(gains.forall(_ > 1.0), s"expected k/2-hop to beat SPARE: $gains")
  }
}

/** Fig 7g: k/2-hop vs DCM on Spark local[*]. */
class F7g_GainOverDcmBench extends BenchBase with SparkSpec {
  test("gain over DCM") {
    warmup()
    val out = Experiments.gainOverSpark(spark, Experiments.Dcm, Experiments.BenchScales)
    record("f7g_gain_dcm", out)
    val gains = out.linesIterator.filter(_.startsWith("RESULT|F7g|"))
      .map(r => "gain=\\s*([0-9.]+)".r.findFirstMatchIn(r).get.group(1).toDouble).toSeq
    assert(gains.size == 3)
    assert(gains.forall(_ > 1.0), s"expected k/2-hop to beat DCM: $gains")
  }
}
