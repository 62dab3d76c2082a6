package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Atom, Fd, InequalityDc}

/** Star-Schema-Benchmark-lite generator (§7.1/§7.2 workloads).
  *
  * `lineorder` carries the FD φ: orderkey → suppkey with 10% of the
  * suppliers of each orderkey randomly edited (the paper's worst-case
  * error generation, uniform across the dataset), plus numeric
  * `extendedprice`/`discount` columns for the inequality-DC experiments
  * (the discount of 10% of entries is perturbed so that cheap lines
  * carry large discounts — violating ¬(price1 < price2 ∧ disc1 >
  * disc2)). `supplier` carries ψ: address → suppkey.
  */
object SSB {

  val Phi: Fd = Fd("ssb_phi", "orderkey", "suppkey")
  val Psi: Fd = Fd("ssb_psi", "address", "suppkey")

  /** The inequality DC of §7.1 "Denial constraints". */
  val PriceDiscountDc: InequalityDc =
    InequalityDc("ssb_dc", Seq(Atom("extendedprice", "<"), Atom("discount", ">")))

  /** lineorder with `nRows` rows over `nOrderkeys` orders and
    * `nSuppkeys` suppliers; `errOrderPct` of the orderkeys contain an
    * edited suppkey on ~10% of their rows.
    */
  def lineorder(spark: SparkSession, nRows: Long, nOrderkeys: Int,
                nSuppkeys: Int, errOrderPct: Double = 1.0,
                discountErrPct: Double = 0.0): Data = {
    val base = spark.range(nRows)
      .withColumn("__tid", col("id"))
      .withColumn("ok", pmod(hash(col("id")), lit(nOrderkeys)).cast("long"))
      .withColumn("sk", pmod(col("ok") * 31, lit(nSuppkeys)).cast("long"))
      .select(
        col("__tid"), col("ok"), col("sk"),
        concat(lit("o_"), col("ok")).as("orderkey"),
        concat(lit("s_"), col("sk")).as("suppkey"),
        // Clean pairs satisfy the DC: discount grows with price.
        (lit(900.0) + pmod(hash(col("id") + 2), lit(90000))).as("extendedprice"),
        lit(0.0).as("discount"),
        (pmod(hash(col("id") + 3), lit(50)) + 1).cast("double").as("quantity"),
      )
      .withColumn("discount", round(col("extendedprice") / lit(1000000.0), 5))

    val dirtyOrder = pmod(col("ok"), lit(100)) < (errOrderPct * 100).toInt
    val dirtySupp  = dirtyOrder && pmod(hash(col("__tid") + 5), lit(10)) === 0
    val wrongSk    = concat(lit("s_"), pmod(col("sk") + 1, lit(nSuppkeys)))

    val dirtyDisc = pmod(hash(col("__tid") + 11), lit(1000)) < (discountErrPct * 1000).toInt
    // Slightly-too-high discount: conflicts only with the clean rows in
    // the (price, price + 800) band, keeping violations sparse ("a few
    // dirty values that cause inconsistencies", §7.1).
    val wrongDisc = round((col("extendedprice") + lit(800.0)) / lit(1000000.0), 5)

    val dirty = base
      .withColumn("suppkey", when(dirtySupp, wrongSk).otherwise(col("suppkey")))
      .withColumn("discount", when(dirtyDisc, wrongDisc).otherwise(col("discount")))

    val errors = base.filter(dirtySupp || dirtyDisc)
      .select(col("__tid"),
        when(dirtySupp, lit("suppkey")).otherwise(lit("discount")).as("attr"),
        when(dirtySupp, col("suppkey")).otherwise(col("discount").cast("string")).as("truth"),
        when(dirtySupp, wrongSk).otherwise(wrongDisc.cast("string")).as("dirty"))

    Data(dirty.drop("ok", "sk"), base.drop("ok", "sk"), errors)
  }

  /** supplier table with ψ: address → suppkey violations on
    * `errAddrPct` of the addresses.
    */
  def supplier(spark: SparkSession, nSuppkeys: Int, errAddrPct: Double = 0.2): Data = {
    val rowsPerSupp = 3L
    val base = spark.range(nSuppkeys * rowsPerSupp)
      .withColumn("__tid", col("id"))
      .withColumn("sk", (col("id") / rowsPerSupp).cast("long"))
      .select(
        col("__tid"), col("sk"),
        concat(lit("s_"), col("sk")).as("suppkey"),
        concat(lit("supname_"), col("sk")).as("s_name"),
        concat(lit("saddr_"), col("sk")).as("address"),
        concat(lit("scity_"), col("sk") % 40).as("s_city"),
      )

    // Every (1/errAddrPct)-th supplier is corrupted, independent of the
    // supplier count.
    val period = math.max(1, math.round(1.0 / math.max(errAddrPct, 1e-9)).toInt)
    val dirtyRow = pmod(col("sk"), lit(period)) === 0 &&
      pmod(col("__tid"), lit(rowsPerSupp)) === 0
    val wrongSk = concat(lit("s_"), pmod(col("sk") + 1, lit(nSuppkeys)))

    val dirty = base.withColumn("suppkey", when(dirtyRow, wrongSk).otherwise(col("suppkey")))
    val errors = base.filter(dirtyRow)
      .select(col("__tid"), lit("suppkey").as("attr"),
        col("suppkey").as("truth"), wrongSk.as("dirty"))

    Data(dirty.drop("sk"), base.drop("sk"), errors)
  }
}
