package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.exp.Table6

/** Reproduces Table 6 (§7.3): response time of Full cleaning / Daisy /
  * Holoclean while the number of rules grows (hospital, scaled to the
  * local machine).
  */
class Table6RulesBench extends AnyFunSuite {

  test("Table 6: response time when increasing the number of rules") {
    val spark = SparkSpec.shared
    val nH = sys.env.getOrElse("BENCH_HOSPITALS", "800").toInt
    val rows = Table6.run(spark, nHospitals = nH, rowsPer = 12)
    println("\n" + Table6.report(rows))

    def secs(sys: String, rs: String) =
      rows.find(r => r.system == sys && r.ruleSet == rs).get.seconds

    for (rs <- Seq("phi1", "phi1+phi2", "phi1+phi2+phi3")) {
      // Daisy stays in the same ballpark as the offline pass on a
      // whole-dataset workload (paper: 49/51, 40/49, 92/118)...
      assert(secs("Daisy", rs) < secs("Full cleaning", rs) * 2.5, s"$rs: Daisy vs Full")
      // ...while Holoclean's per-attribute-pair featurization is the
      // clearly slowest system (paper: ~10-20x).
      assert(secs("Holoclean", rs) > secs("Daisy", rs) * 1.5, s"$rs: Holoclean vs Daisy")
    }
  }
}
