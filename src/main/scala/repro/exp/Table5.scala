package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.holoclean.HolocleanLite
import repro.core.ProbData.MaterializeOps

/** Table 5 (§7.3): precision / recall / F1 of HoloClean, DaisyH and
  * DaisyP on the hospital dataset (8 rows per hospital) for the rule
  * sets {φ1}, {φ1,φ2}, {φ1,φ2,φ3}. Daisy cleans the dataset through the
  * 4-query whole-dataset workload; accuracy is measured against the
  * injected ground truth.
  *
  * Usage: `spark-submit --class repro.exp.Table5 … [nHospitals=125]`
  */
object Table5 {

  final case class Row(system: String, ruleSet: String,
                       precision: Double, recall: Double, f1: Double)

  /** Paper figures (precision/recall/F1) by (system, rule set). */
  val paper: Map[Seq[String], String] = Map(
    Seq("Holoclean", "phi1") -> "1.00/0.55/0.71",
    Seq("Holoclean", "phi1+phi2") -> "0.98/0.95/0.96",
    Seq("Holoclean", "phi1+phi2+phi3") -> "0.98/0.92/0.95",
    Seq("DaisyH", "phi1") -> "0.97/0.52/0.68",
    Seq("DaisyH", "phi1+phi2") -> "1.00/0.98/0.99",
    Seq("DaisyH", "phi1+phi2+phi3") -> "1.00/0.98/0.99",
    Seq("DaisyP", "phi1") -> "0.41/0.51/0.45",
    Seq("DaisyP", "phi1+phi2") -> "1.00/0.97/0.98",
    Seq("DaisyP", "phi1+phi2+phi3") -> "1.00/0.98/0.99",
  )

  def run(spark: SparkSession, nHospitals: Int): Seq[Row] = {
    val data = Workloads.hospital(spark, nHospitals, rowsPer = 8)
    val dirty = data.dirty
    val errors = data.errors.materialized

    Workloads.hospitalRuleSets.flatMap { case (name, fds) =>
      // Daisy cleans through the query workload.
      val attrs = fds.flatMap(_.attrs).distinct
      val daisy = Daisy.single(spark, "hospital", dirty, fds)
      Workloads.hospitalWorkload(attrs).foreach(daisy.execute)
      val domains = HolocleanLite.daisyDomains(daisy.state("hospital"), attrs).materialized

      val hc = HolocleanLite.run(dirty, fds)
      val dh = HolocleanLite.runDaisyH(dirty, domains, fds)
      val dp = HolocleanLite.daisyP(domains)

      Seq("Holoclean" -> hc, "DaisyH" -> dh, "DaisyP" -> dp).map { case (sys, r) =>
        val m = HolocleanLite.accuracy(r.updates, errors)
        Row(sys, name, round2(m.precision), round2(m.recall), round2(m.f1))
      }
    }
  }

  private def round2(d: Double): Double = math.rint(d * 100) / 100

  def report(rows: Seq[Row]): String =
    Report.render("Table 5: Accuracy", Seq("system", "rules", "prec", "rec", "F1"), paper,
      rows.map(r => (Seq(r.system, r.ruleSet), Seq(r.precision, r.recall, r.f1).map(x => f"$x%.2f"))))

  def main(args: Array[String]): Unit =
    Report.main("daisy-table5", args)((spark, arg) => report(run(spark, arg(0, 125))))
}
