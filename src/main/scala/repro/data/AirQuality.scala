package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Fd

/** Synthetic stand-in for the Kaggle historical air-quality dataset
  * (§7): hourly CO measurements per US county with the multi-attribute
  * FD `(county_code, state_code) → county_name`.
  *
  * Errors edit the county_name of 10% of the rows of selected
  * (county_code, state_code) pairs — the paper adds errors to the
  * non-frequent pairs; the *violation share* (fraction of rows living
  * in violating groups) is the knob that distinguishes the 30% and 97%
  * versions of Table 8.
  */
object AirQuality {

  val Phi: Fd = Fd("aq_fd", Seq("county_code", "state_code"), "county_name")

  /** `nRows` hourly measurements over `nCounties` counties; county row
    * counts are skewed (first counties are frequent). Counties whose
    * index ≥ `nCounties * (1 - violationShare)` — the non-frequent
    * tail — get 10% of their rows' county_name edited.
    */
  def generate(spark: SparkSession, nRows: Long, nCounties: Int = 200,
               violationShare: Double = 0.3): Data = {
    // Skew: county of a row = floor(sqrt(u)) scaled, making low indexes
    // frequent; the error tail then covers ~violationShare of the rows.
    val u = pmod(hash(col("id")), lit(10000)) / lit(10000.0)
    // Rows fall in violating groups iff u < violationShare: map that
    // u-range onto the tail county indexes, the rest onto the head.
    val tailStart = (nCounties * 0.5).toInt
    val countyIdx = when(u < violationShare,
      (lit(tailStart) + pmod(hash(col("id") + 7), lit(nCounties - tailStart))).cast("long"))
      .otherwise(pmod(hash(col("id") + 13), lit(tailStart)).cast("long"))

    val base = spark.range(nRows)
      .withColumn("__tid", col("id"))
      .withColumn("c", countyIdx)
      .withColumn("isTail", u < violationShare)
      .select(
        col("__tid"), col("c"), col("isTail"),
        concat(lit("cc_"), col("c")).as("county_code"),
        concat(lit("st_"), col("c") % 50).as("state_code"),
        concat(lit("county_"), col("c")).as("county_name"),
        (lit(2000) + col("id") % 18).cast("string").as("year"),
        (col("id") % 12 + 1).cast("string").as("month"),
        (col("id") % 28 + 1).cast("string").as("day"),
        (col("id") % 24).cast("string").as("hour"),
        (pmod(hash(col("id") + 3), lit(1000)) / 100.0).as("co"),
        (pmod(hash(col("id") + 4), lit(1000)) / 10.0).as("no2"),
        concat(lit("site_"), col("c"), lit("_"), col("id") % 3).as("site"),
        lit("ppm").as("units"),
      )

    // 10% of the rows of tail counties get a typo county_name.
    val dirtyRow = col("isTail") && pmod(hash(col("__tid") + 21), lit(10)) === 0
    val typo = concat(lit("county_typo_"), col("c"))

    val dirty = base.withColumn("county_name",
      when(dirtyRow, typo).otherwise(col("county_name")))

    val errors = base.filter(dirtyRow)
      .select(col("__tid"), lit("county_name").as("attr"),
        col("county_name").as("truth"), typo.as("dirty"))

    Data(dirty.drop("c", "isTail"), base.drop("c", "isTail"), errors)
  }
}
