package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Fd

/** Synthetic stand-in for the proprietary Nestle food-products dataset
  * (§7): products with 19 attributes and the FD `material → category`.
  *
  * The characteristics that drive the Table 8 result are preserved:
  * 95% of the materials appear with conflicting categories (the paper's
  * "95% of conflicting entities"), the category attribute has very low
  * selectivity (few distinct values, each co-occurring with many
  * erroneous materials), and roughly 10% of the category values of each
  * material are edited — so a full offline repair iterates over
  * thousands of erroneous groups while Daisy's workload only touches
  * the queried 40% of the data.
  */
object Nestle {

  val Phi: Fd = Fd("nestle_fd", "material", "category")

  /** `nRows` products over `nMaterials` materials and `nCategories`
    * categories; `dirtyMaterialPct` of the materials get ~10% of their
    * rows' category replaced with the next category value.
    */
  def generate(spark: SparkSession, nRows: Long, nMaterials: Int = 800,
               nCategories: Int = 15, dirtyMaterialPct: Double = 0.95): Data = {
    val rowsPerMat = math.max(1L, nRows / nMaterials)
    val base = spark.range(nRows)
      .withColumn("__tid", col("id"))
      .withColumn("m", (col("id") / rowsPerMat).cast("long") % nMaterials)
      .withColumn("catIdx", col("m") % nCategories)
      .select(
        col("__tid"), col("m"), col("catIdx"),
        concat(lit("prod_"), col("id")).as("product_id"),
        concat(lit("name_"), col("id")).as("product_name"),
        concat(lit("brand_"), col("id") % 50).as("brand"),
        concat(lit("mat_"), col("m")).as("material"),
        concat(lit("cat_"), col("catIdx")).as("category"),
        concat(lit("plant_"), col("id") % 30).as("plant"),
        concat(lit("ctry_"), col("id") % 20).as("country"),
        (pmod(hash(col("id")), lit(1000)) / 10.0).cast("string").as("weight"),
        (pmod(hash(col("id") + 1), lit(500))).cast("string").as("price"),
        concat(lit("pkg_"), col("id") % 6).as("packaging"),
        concat(lit("sup_"), col("id") % 40).as("supplier"),
        concat(lit("lot_"), col("id") % 100).as("lot"),
        (col("id") % 12 + 1).cast("string").as("month"),
        (col("id") % 28 + 1).cast("string").as("day"),
        concat(lit("line_"), col("id") % 8).as("line"),
        concat(lit("shift_"), col("id") % 3).as("shift"),
        concat(lit("qc_"), col("id") % 5).as("qc_code"),
      )

    // ~10% of each dirty material's rows take the next category value,
    // which is an existing category (a realistic mislabeling).
    val dirtyMat = pmod(col("m"), lit(100)) < (dirtyMaterialPct * 100).toInt
    val dirtyRow = dirtyMat && pmod(hash(col("__tid")), lit(10)) === 0
    val wrongCat = concat(lit("cat_"), pmod(col("catIdx") + 1, lit(nCategories)))

    val dirty = base
      .withColumn("category", when(dirtyRow, wrongCat).otherwise(col("category")))

    val errors = base.filter(dirtyRow)
      .select(col("__tid"), lit("category").as("attr"),
        col("category").as("truth"), wrongCat.as("dirty"))

    Data(dirty.drop("m", "catIdx"), base.drop("m", "catIdx"), errors)
  }
}
