package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{AirQuality, Data, Nestle}
import repro.offline.OfflineCleaner
import repro.core.ProbData.MaterializeOps

/** Table 8 (§7.3): realistic exploratory scenarios.
  *
  *  - Nestle: 37 SP queries on the Category attribute covering ~40% of
  *    the dataset, FD material → category, 95% conflicting materials.
  *    Offline cleaning repairs every erroneous group with per-group
  *    passes (the O(ε·n) shape: one Spark job per group, the same
  *    state as a bulk repair) and collapses on the larger version.
  *  - Air quality: 52 per-county aggregate queries, FD
  *    (county_code, state_code) → county_name. Offline cleaning runs
  *    under a scaled-down version of the paper's one-day timeout and
  *    does not finish ("-" in the paper).
  *
  * Usage: `spark-submit --class repro.exp.Table8 … [nestleSmall] [nestleLarge] [airRows] [offlineTimeoutSec]`
  * (defaults: [[Sizes]]).
  */
object Table8 {

  final case class Row(dataset: String, daisySec: Double,
                       offlineSec: Option[Double], offlineTimedOut: Boolean,
                       offGroupsDone: Long, offGroupsTotal: Long)

  /** Paper figures (Daisy / offline; air quality offline "-") by dataset. */
  val paper: Map[Seq[String], String] = Map(
    Seq("Nestle (small)") -> "2.9 min / 3.97 min",
    Seq("Nestle (large)") -> "26.8 min / 8.5 hours",
    Seq("Air quality 30%") -> "10.5 min / -",
    Seq("Air quality 97%") -> "49 min / -",
  )

  /** Row counts, and the scaled-down version of the paper's one-day
    * timeout under which every offline run but Nestle-small's runs.
    */
  final case class Sizes(nestleSmall: Long = 60000, nestleLarge: Long = 400000,
                         airRows: Long = 150000, offlineTimeoutSec: Double = 240.0)

  private val NestleSmallMats = 800
  private val NestleLargeMats = 2500
  private val AirCounties = 600
  /** Nestle-small offline is allowed to finish (the paper reports 3.97 min for it). */
  private val NestleSmallTimeoutSec = 1200.0

  def run(spark: SparkSession, sz: Sizes): Seq[Row] = Seq(
    scenario(spark, "Nestle (small)", Nestle.generate(spark, sz.nestleSmall, NestleSmallMats),
      "nestle", Nestle.Phi, Workloads.nestleWorkload(), NestleSmallTimeoutSec),
    scenario(spark, "Nestle (large)", Nestle.generate(spark, sz.nestleLarge, NestleLargeMats),
      "nestle", Nestle.Phi, Workloads.nestleWorkload(), sz.offlineTimeoutSec),
    scenario(spark, "Air quality 30%", AirQuality.generate(spark, sz.airRows, AirCounties, 0.30),
      "air", AirQuality.Phi, Workloads.airQualityWorkload(AirCounties), sz.offlineTimeoutSec),
    scenario(spark, "Air quality 97%", AirQuality.generate(spark, sz.airRows, AirCounties, 0.97),
      "air", AirQuality.Phi, Workloads.airQualityWorkload(AirCounties), sz.offlineTimeoutSec),
  )

  /** Daisy answering `workload` over `table`, then the offline per-group
    * repair of the whole table under `timeoutSec`.
    */
  private def scenario(spark: SparkSession, dataset: String, data: Data, table: String,
                       fd: Fd, workload: Seq[QuerySpec], timeoutSec: Double): Row = {
    val dirty = data.dirty.materialized
    val daisySec = Workloads.runWorkload(Daisy.single(spark, table, dirty, Seq(fd)), workload)
    val off = OfflineCleaner.run(dirty, Seq(fd), OfflineCleaner.Mode.PerGroup, timeoutSec)
    Row(dataset, daisySec, if (off.timedOut) None else Some(off.seconds), off.timedOut,
      off.groupsProcessed, off.groupsTotal)
  }

  def report(rows: Seq[Row]): String =
    Report.render("Table 8: Realistic exploratory scenarios", Seq("dataset", "Daisy", "Offline"), paper,
      rows.map(r => (Seq(r.dataset), Seq(f"${r.daisySec}%.1fs", r.offlineSec.fold(
        s"timeout after ${r.offGroupsDone}/${r.offGroupsTotal} groups")(s => f"$s%.1fs")))))

  def main(args: Array[String]): Unit =
    Report.main("daisy-table8", args) { (spark, arg) =>
      val d = Sizes()
      report(run(spark, Sizes(arg(0, d.nestleSmall), arg(1, d.nestleLarge), arg(2, d.airRows),
        arg(3, d.offlineTimeoutSec))))
    }
}
