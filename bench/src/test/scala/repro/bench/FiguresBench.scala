package repro.bench

import repro.exp.Experiments

/** Fig 7a/7b: gain of k2-RDBMS / k2-LSMT over VCoDA* (Trucks, T-Drive). */
class F7ab_GainOverVCoDABench extends BenchBase {
  test("gain over VCoDA*") {
    warmup()
    val out = Seq("Trucks", "T-Drive").map(n => Experiments.gainOverVCoDA(n, Experiments.BenchScales(n))).mkString
    record("f7ab_gain_vcoda", out)
    // Shape: on the larger dataset (T-Drive) the median gain at the largest
    // k must exceed 1 (k/2-hop beats the full-clustering baseline).
    val tdriveRows = out.linesIterator.filter(l => l.startsWith("RESULT|F7ab|T-Drive") && l.contains("k=120")).toSeq
    val medians = tdriveRows.map(r => "median=\\s*([0-9.]+)".r.findFirstMatchIn(r).get.group(1).toDouble)
    assert(medians.nonEmpty && medians.forall(_ > 1.0), s"expected gain > 1 on T-Drive at k=120: $medians")
  }
}

/** Fig 7c/7h/8a/8b: effect of k on every algorithm and dataset. VCoDA
  * (naive) is skipped on Brinkhoff, where the paper reports it crashed.
  */
class F8_EffectOfKBench extends BenchBase {
  test("effect of k") {
    warmup()
    val out = Experiments.effectOf(Experiments.EffectOfK, Experiments.BenchScales)
    record("f8_effect_of_k", out)
    // Shape: at the largest k on the largest dataset every k2 variant beats VCoDA*.
    val row = out.linesIterator.find(l => l.startsWith("RESULT|EFFK|Brinkhoff") && l.contains("k=150")).get
    val vstar = "VCoDA\\*=\\s*([0-9.]+)".r.findFirstMatchIn(row).get.group(1).toDouble
    val k2s = "k2-[A-Za-z]+=\\s*([0-9.]+)".r.findAllMatchIn(row).map(_.group(1).toDouble).toSeq
    assert(k2s.forall(_ < vstar), s"k2 variants ($k2s ms) should beat VCoDA* ($vstar ms) at k=150")
  }
}

/** Fig 8c/8d/8e: effect of m. */
class F8_EffectOfMBench extends BenchBase {
  test("effect of m") {
    warmup()
    val out = Experiments.effectOf(Experiments.EffectOfM, Experiments.BenchScales)
    record("f8_effect_of_m", out)
    assert(out.linesIterator.count(_.startsWith("RESULT|EFFM|")) == 9)
  }
}

/** Fig 8f/8g/8h: effect of eps. */
class F8_EffectOfEpsBench extends BenchBase {
  test("effect of eps") {
    warmup()
    val out = Experiments.effectOf(Experiments.EffectOfEps, Experiments.BenchScales)
    record("f8_effect_of_eps", out)
    assert(out.linesIterator.count(_.startsWith("RESULT|EFFEPS|")) == 9)
  }
}

/** Fig 8i/8j: phase breakdown of k2-LSMT and pre-validation convoy counts. */
class F8i_PhaseBreakdownBench extends BenchBase {
  test("phase breakdown and pre-validation counts") {
    warmup()
    val out = Experiments.phasesAndPreValidation("T-Drive", Experiments.BenchScales("T-Drive"))
    record("f8i_phases", out)
    val rows = out.linesIterator.filter(_.startsWith("RESULT|F8i|")).toSeq
    assert(rows.size == 5)
    // Shape: pre-validation counts exist for both algorithms.
    assert(out.linesIterator.count(_.startsWith("RESULT|F8j|")) == 5)
  }
}

/** Fig 8k: effect of the number of convoys. */
class F8k_ConvoyCountBench extends BenchBase {
  test("effect of convoy count") {
    warmup()
    val out = Experiments.convoyCount()
    record("f8k_convoy_count", out)
    val counts = out.linesIterator.filter(_.startsWith("RESULT|CONVCNT|"))
      .map(r => "convoys=\\s*([0-9]+)".r.findFirstMatchIn(r).get.group(1).toInt).toSeq
    // More planted groups => more mined convoys (monotone non-decreasing).
    assert(counts == counts.sorted, s"convoy counts should grow with planted groups: $counts")
  }
}

/** Fig 8l: data size scalability. */
class F8l_ScalabilityBench extends BenchBase {
  test("data size scalability") {
    warmup()
    val out = Experiments.scalability()
    record("f8l_scalability", out)
    val rows = out.linesIterator.filter(_.startsWith("RESULT|F8l|")).toSeq
    assert(rows.size == 4)
    // Shape: at the largest scale, k2 variants beat VCoDA* by a wide margin.
    val last = rows.last
    val vstar = "VCoDA\\*=\\s*([0-9.]+)".r.findFirstMatchIn(last).get.group(1).toDouble
    val rdbms = "k2-RDBMS=\\s*([0-9.]+)".r.findFirstMatchIn(last).get.group(1).toDouble
    assert(rdbms < vstar, s"k2-RDBMS ($rdbms ms) should beat VCoDA* ($vstar ms) at the largest scale")
  }
}
