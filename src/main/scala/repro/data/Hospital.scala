package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Fd

/** Synthetic stand-in for the hospital dataset of the paper (§7):
  * US-hospital-like entities with 19 attributes, several measure rows
  * per hospital, and BART-like injected errors detectable by
  *
  *  - φ1: zip → city
  *  - φ2: name → zip (hospitalName determines zip)
  *  - φ3: phone → zip
  *
  * Three error classes shape the Table 5 accuracy experiment:
  *
  *  - *tie* city errors: half of a hospital's rows get the same typo
  *    city, so the zip group's candidate distribution is a 50/50 tie —
  *    a blind most-probable pick (DaisyP) guesses, while inference over
  *    co-occurrences (county/state agree with the true city) resolves
  *    it,
  *  - *minority* city errors: one row gets a typo city (frequency
  *    disambiguates),
  *  - *zip* errors: some rows get a fresh typo zip, invisible to φ1
  *    (the typo zip maps to a single city) but detected and fixed by
  *    φ2/φ3 — so recall roughly doubles when those rules are added,
  *    matching the paper's Table 5 progression.
  *
  * Ground truth is returned for accuracy measurement.
  */
object Hospital {

  val Phi1: Fd = Fd("phi1", "zip", "city")
  val Phi2: Fd = Fd("phi2", "name", "zip")
  val Phi3: Fd = Fd("phi3", "phone", "zip")
  val Rules: Seq[Fd] = Seq(Phi1, Phi2, Phi3)

  /** Generates `nHospitals` hospitals × `rowsPer` measure rows; the
    * errors are (tid, attr, truth, dirty) per injected cell.
    *
    * Error populations (by hospital index): the first `nTie` hospitals
    * carry tie city errors, the next `nMinority` carry minority city
    * errors, the next `nZipErr` carry zip errors on `zipErrRows` rows.
    */
  def generate(spark: SparkSession, nHospitals: Int = 125, rowsPer: Int = 8,
               nTie: Int = 12, nMinority: Int = 16, nZipErr: Int = 16,
               zipErrRows: Int = 3): Data = {
    require(nTie + nMinority + nZipErr <= nHospitals)
    val nCities = math.max(3, nHospitals / 3)

    val base = spark.range(nHospitals.toLong * rowsPer)
      .withColumn("__tid", col("id"))
      .withColumn("h", (col("id") / rowsPer).cast("long"))
      .withColumn("r", (col("id") % rowsPer).cast("int"))
      .withColumn("cityIdx", col("h") % nCities)
      .select(
        col("__tid"), col("h"), col("r"),
        concat(lit("prov_"), col("h")).as("provider_id"),
        concat(lit("hosp_"), col("h")).as("name"),
        concat(lit("addr_"), col("h")).as("address"),
        concat(lit("city_"), col("cityIdx")).as("city"),
        concat(lit("state_"), col("cityIdx") % 12).as("state"),
        concat(lit("z_"), col("h")).as("zip"),
        concat(lit("county_"), col("cityIdx") % 30).as("county"),
        concat(lit("p_"), col("h")).as("phone"),
        concat(lit("type_"), col("h") % 4).as("hospital_type"),
        concat(lit("own_"), col("h") % 3).as("owner"),
        (col("h") % 2 === 0).cast("string").as("emergency"),
        concat(lit("cond_"), col("r") % 5).as("condition"),
        concat(lit("m_"), col("r")).as("measure_code"),
        concat(lit("measure "), col("r")).as("measure_name"),
        (pmod(hash(col("id")), lit(100))).cast("string").as("score"),
        (pmod(hash(col("id") + 1), lit(500))).cast("string").as("sample"),
        (pmod(hash(col("h")), lit(100))).cast("string").as("state_avg"),
        concat(lit("meas_"), col("h"), lit("_"), col("r")).as("measure_id"),
        concat(lit("fn_"), col("r") % 3).as("footnote"),
      )

    val isTie = col("h") < nTie && col("r") < rowsPer / 2
    val isMin = col("h") >= nTie && col("h") < nTie + nMinority && col("r") === 0
    val isZip = col("h") >= nTie + nMinority && col("h") < nTie + nMinority + nZipErr &&
      col("r") < zipErrRows

    val dirty = base
      .withColumn("city",
        when(isTie || isMin, concat(lit("city_typo_"), col("h"))).otherwise(col("city")))
      .withColumn("zip",
        when(isZip, concat(lit("z_typo_"), col("h"))).otherwise(col("zip")))

    val errors = base
      .withColumn("attr",
        when(isTie || isMin, lit("city")).when(isZip, lit("zip")))
      .filter(col("attr").isNotNull)
      .withColumn("truth", when(col("attr") === "city", col("city")).otherwise(col("zip")))
      .withColumn("dirty",
        when(col("attr") === "city", concat(lit("city_typo_"), col("h")))
          .otherwise(concat(lit("z_typo_"), col("h"))))
      .select("__tid", "attr", "truth", "dirty")

    Data(dirty.drop("h", "r"), base.drop("h", "r"), errors)
  }
}
