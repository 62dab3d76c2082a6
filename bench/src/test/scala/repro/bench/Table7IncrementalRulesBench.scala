package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.exp.Table7

/** Reproduces Table 7 (§7.3): the provenance benefit when rules arrive
  * incrementally — one live Daisy session vs three from-scratch
  * executions vs Holoclean.
  */
class Table7IncrementalRulesBench extends AnyFunSuite {

  test("Table 7: incremental rule arrival via provenance") {
    val spark = SparkSpec.shared
    val nH = sys.env.getOrElse("BENCH_HOSPITALS", "800").toInt
    val rows = Table7.run(spark, nHospitals = nH, rowsPer = 12)
    println("\n" + Table7.report(rows))

    def secs(sys: String, step: String) =
      rows.find(r => r.system == sys && r.step == step).get.seconds

    // The single incremental execution beats re-running from scratch in
    // total (paper: 132 vs 218 seconds) because the φ1 (and later φ1+φ2)
    // work is not repeated.
    assert(secs("Daisy (1 execution)", "Total") < secs("Daisy (3 executions)", "Total"))
    // The later steps of the incremental session are cheaper than the
    // corresponding from-scratch executions (paper: 40 vs 118).
    assert(secs("Daisy (1 execution)", "phi1+phi2+phi3") <
      secs("Daisy (3 executions)", "phi1+phi2+phi3"))
    // Holoclean re-runs everything and is the slowest in total.
    assert(secs("Holoclean", "Total") > secs("Daisy (1 execution)", "Total"))
  }
}
