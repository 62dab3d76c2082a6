package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.exp.Table5

/** Reproduces Table 5 (§7.3): accuracy of Holoclean / DaisyH / DaisyP
  * for growing rule sets on the hospital dataset (~1K rows).
  * Prints measured rows next to the paper's.
  */
class Table5AccuracyBench extends AnyFunSuite {

  test("Table 5: accuracy by rule set") {
    val spark = SparkSpec.shared
    val rows = Table5.run(spark, nHospitals = 125)
    println("\n" + Table5.report(rows))

    def row(sys: String, rs: String) = rows.find(r => r.system == sys && r.ruleSet == rs).get

    // Shape assertions (the paper's qualitative findings):
    // 1. With φ1 only, blind most-probable picking has clearly worse
    //    precision than the inference-based systems.
    assert(row("DaisyP", "phi1").precision < row("DaisyH", "phi1").precision - 0.15)
    assert(row("DaisyP", "phi1").precision < row("Holoclean", "phi1").precision - 0.15)
    // 2. φ1 alone leaves the zip errors invisible: recall is bounded.
    assert(row("DaisyH", "phi1").recall < 0.8)
    assert(row("Holoclean", "phi1").recall < 0.8)
    // 3. With all rules known, every system becomes accurate, and the
    //    Daisy variants are at least competitive with Holoclean.
    for (sys <- Seq("Holoclean", "DaisyH", "DaisyP"))
      assert(row(sys, "phi1+phi2+phi3").f1 > 0.75, s"$sys F1")
    assert(row("DaisyH", "phi1+phi2+phi3").f1 >= row("Holoclean", "phi1+phi2+phi3").f1 - 0.1)
  }
}
