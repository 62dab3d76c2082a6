package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.Fd
import repro.offline.OfflineCleaner

/** Table 6 (§7.3): response time of full cleaning, Daisy and HoloClean
  * on the hospital dataset when the number of rules grows. The
  * workload is the 4-query whole-dataset SP workload, so Daisy's cost
  * approaches the offline cost (its win comes from merged correlated-
  * tuple handling), while HoloClean pays its per-attribute-pair domain
  * construction and inference sweeps. An untimed pass of the first
  * rule set warms the JVM up first ([[Workloads.warmUp]]).
  *
  * Usage: `spark-submit --class repro.exp.Table6 … [nHospitals=4000] [rowsPerHospital=25]`
  */
object Table6 {

  final case class Row(system: String, ruleSet: String, seconds: Double)

  /** Paper figures (seconds, hospital 100K) by (system, rule set). */
  val paper: Map[Seq[String], String] = Map(
    Seq("Full cleaning", "phi1") -> "51", Seq("Full cleaning", "phi1+phi2") -> "49",
    Seq("Full cleaning", "phi1+phi2+phi3") -> "118",
    Seq("Daisy", "phi1") -> "49", Seq("Daisy", "phi1+phi2") -> "40",
    Seq("Daisy", "phi1+phi2+phi3") -> "92",
    Seq("Holoclean", "phi1") -> "1020", Seq("Holoclean", "phi1+phi2") -> "1108",
    Seq("Holoclean", "phi1+phi2+phi3") -> "1188",
  )

  def run(spark: SparkSession, nHospitals: Int, rowsPer: Int): Seq[Row] = {
    val dirty = Workloads.hospital(spark, nHospitals, rowsPer).dirty
    val workload = (fds: Seq[Fd]) => Workloads.hospitalWorkload(fds.flatMap(_.attrs).distinct)
    Workloads.warmUp(spark, dirty, workload)
    val offline = Workloads.hospitalRuleSets.map { case (_, fds) =>
      OfflineCleaner.run(dirty, fds, OfflineCleaner.Mode.Bulk).seconds
    }
    val scratch = Workloads.fromScratch(spark, dirty, workload)
    offline.zip(scratch).flatMap { case (off, (name, daisy, hc)) =>
      Seq(Row("Full cleaning", name, off), Row("Daisy", name, daisy), Row("Holoclean", name, hc))
    }
  }

  def report(rows: Seq[Row]): String =
    Report.render("Table 6: Response time vs number of rules", Seq("system", "rules", "sec"), paper,
      rows.map(r => (Seq(r.system, r.ruleSet), Seq(f"${r.seconds}%.1f"))))

  def main(args: Array[String]): Unit =
    Report.main("daisy-table6", args)((spark, arg) => report(run(spark, arg(0, 4000), arg(1, 25))))
}
