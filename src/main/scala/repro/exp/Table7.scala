package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Hospital

/** Table 7 (§7.3): the provenance benefit. Rules arrive incrementally
  * (φ1, then φ2, then φ3) while the user queries the whole dataset.
  *
  *  - "Daisy (3 executions)": each rule set is cleaned from scratch in
  *    a fresh session — the cost of re-running the task.
  *  - "Daisy (1 execution)": a single session keeps the probabilistic
  *    state and the provenance (original values); a new rule only adds
  *    the cost of checking itself and merging its fixes.
  *  - HoloClean: three independent runs.
  *
  * Every Daisy step answers the workload through
  * [[Workloads.runWorkload]], after an untimed pass of the first rule
  * set has warmed the JVM up ([[Workloads.warmUp]]).
  *
  * Usage: `spark-submit --class repro.exp.Table7 … [nHospitals=4000] [rowsPerHospital=25]`
  */
object Table7 {

  final case class Row(system: String, step: String, seconds: Double)

  /** Paper figures (seconds) by (system, step). */
  val paper: Map[Seq[String], String] = Map(
    Seq("Daisy (3 executions)", "phi1") -> "51", Seq("Daisy (3 executions)", "phi1+phi2") -> "49",
    Seq("Daisy (3 executions)", "phi1+phi2+phi3") -> "118", Seq("Daisy (3 executions)", "Total") -> "218",
    Seq("Daisy (1 execution)", "phi1") -> "51", Seq("Daisy (1 execution)", "phi1+phi2") -> "41",
    Seq("Daisy (1 execution)", "phi1+phi2+phi3") -> "40", Seq("Daisy (1 execution)", "Total") -> "132",
    Seq("Holoclean", "phi1") -> "1020", Seq("Holoclean", "phi1+phi2") -> "1108",
    Seq("Holoclean", "phi1+phi2+phi3") -> "1188", Seq("Holoclean", "Total") -> "3316",
  )

  def run(spark: SparkSession, nHospitals: Int, rowsPer: Int): Seq[Row] = {
    val dirty = Workloads.hospital(spark, nHospitals, rowsPer).dirty
    val workload = Workloads.hospitalWorkload(Hospital.Rules.flatMap(_.attrs).distinct)
    Workloads.warmUp(spark, dirty, _ => workload)

    // 3 separate executions (a fresh session per rule set) and HoloClean.
    val scratch = Workloads.fromScratch(spark, dirty, _ => workload)

    // 1 incremental execution: each rule set adds its last rule to a live session.
    val live = Daisy.single(spark, "hospital", dirty, Seq(Hospital.Phi1))
    val oneExec = Workloads.hospitalRuleSets.map { case (name, fds) =>
      if (fds.size > 1) live.addRule("hospital", fds.last)
      Row("Daisy (1 execution)", name, Workloads.runWorkload(live, workload))
    }

    def withTotal(rows: Seq[Row]): Seq[Row] = rows :+ Row(rows.head.system, "Total", rows.map(_.seconds).sum)
    withTotal(scratch.map { case (name, daisy, _) => Row("Daisy (3 executions)", name, daisy) }) ++
      withTotal(oneExec) ++
      withTotal(scratch.map { case (name, _, hc) => Row("Holoclean", name, hc) })
  }

  def report(rows: Seq[Row]): String =
    Report.render("Table 7: Incremental rules via provenance", Seq("system", "step", "sec"), paper,
      rows.map(r => (Seq(r.system, r.step), Seq(f"${r.seconds}%.1f"))))

  def main(args: Array[String]): Unit =
    Report.main("daisy-table7", args)((spark, arg) => report(run(spark, arg(0, 4000), arg(1, 25))))
}
