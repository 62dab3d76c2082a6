package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{AirQuality, Nestle}
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
  */
object Table8 {

  final case class Row(dataset: String, daisySec: Double,
                       offlineSec: Option[Double], offlineTimedOut: Boolean,
                       offGroupsDone: Long = 0, offGroupsTotal: Long = 0)

  /** Paper numbers: Daisy vs offline minutes (air quality offline "-"). */
  val paper: Seq[(String, String, String)] = Seq(
    ("Nestle (small)", "2.9 min", "3.97 min"),
    ("Nestle (large)", "26.8 min", "8.5 hours"),
    ("Air quality 30%", "10.5 min", "-"),
    ("Air quality 97%", "49 min", "-"),
  )

  final case class Sizes(nestleSmall: Long = 60000, nestleLarge: Long = 400000,
                         nestleSmallMats: Int = 800, nestleLargeMats: Int = 2500,
                         airRows: Long = 150000, airCounties: Int = 600,
                         /** Nestle-small offline is allowed to finish
                           * (the paper reports 3.97 min for it). */
                         nestleSmallTimeoutSec: Double = 1200.0,
                         /** Everything else runs under the scaled-down
                           * version of the paper's one-day timeout. */
                         offlineTimeoutSec: Double = 240.0)

  def run(spark: SparkSession, sz: Sizes = Sizes()): Seq[Row] = {
    val nestleSmall = nestleRun(spark, sz.nestleSmall, sz.nestleSmallMats, sz.nestleSmallTimeoutSec)
    val nestleLarge = nestleRun(spark, sz.nestleLarge, sz.nestleLargeMats, sz.offlineTimeoutSec)
    val air30 = airRun(spark, sz.airRows, sz.airCounties, 0.30, sz.offlineTimeoutSec)
    val air97 = airRun(spark, sz.airRows, sz.airCounties, 0.97, sz.offlineTimeoutSec)
    Seq(
      nestleSmall.copy(dataset = "Nestle (small)"),
      nestleLarge.copy(dataset = "Nestle (large)"),
      air30.copy(dataset = "Air quality 30%"),
      air97.copy(dataset = "Air quality 97%"),
    )
  }

  private def nestleRun(spark: SparkSession, nRows: Long, nMats: Int,
                        timeoutSec: Double): Row = {
    val data = Nestle.generate(spark, nRows, nMats)
    val dirty = data.dirty.materialized

    val daisy = Daisy.single(spark, "nestle", dirty, Seq(Nestle.Phi))
    val daisySec = Workloads.runWorkload(daisy, Workloads.nestleWorkload())

    val off = OfflineCleaner.run(dirty, Seq(Nestle.Phi),
      OfflineCleaner.Mode.PerGroup, timeoutSec)
    Row("nestle", daisySec,
      if (off.timedOut) None else Some(off.seconds), off.timedOut,
      off.groupsProcessed, off.groupsTotal)
  }

  private def airRun(spark: SparkSession, nRows: Long, nCounties: Int,
                     share: Double, timeoutSec: Double): Row = {
    val data = AirQuality.generate(spark, nRows, nCounties, share)
    val dirty = data.dirty.materialized

    val daisy = Daisy.single(spark, "air", dirty, Seq(AirQuality.Phi))
    val daisySec = Workloads.runWorkload(daisy, Workloads.airQualityWorkload(nCounties))

    val off = OfflineCleaner.run(dirty, Seq(AirQuality.Phi),
      OfflineCleaner.Mode.PerGroup, timeoutSec)
    Row("air", daisySec,
      if (off.timedOut) None else Some(off.seconds), off.timedOut,
      off.groupsProcessed, off.groupsTotal)
  }

  def render(measured: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append(f"${"dataset"}%-18s ${"Daisy"}%10s ${"Offline"}%12s   (paper Daisy / Offline)\n")
    for (r <- measured) {
      val p = paper.find(_._1 == r.dataset)
      val offs = r.offlineSec.map(s => f"$s%10.1fs").getOrElse(
        f"timeout after ${r.offGroupsDone}/${r.offGroupsTotal} groups")
      sb.append(f"${r.dataset}%-18s ${r.daisySec}%9.1fs $offs   " +
        p.map(x => s"(${x._2} / ${x._3})").getOrElse("") + "\n")
    }
    sb.toString
  }
}
