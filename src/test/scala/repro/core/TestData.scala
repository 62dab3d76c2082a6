package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** Shared fixtures: the worked examples of the paper. */
object TestData {

  /** Table 2a — the dirty Cities dataset (Zip → City). */
  def cities(spark: SparkSession): DataFrame = {
    val rows = Seq(
      (0L, "9001", "Los Angeles"),
      (1L, "9001", "San Francisco"),
      (2L, "9001", "Los Angeles"),
      (3L, "10001", "San Francisco"),
      (4L, "10001", "New York"),
    )
    spark.createDataFrame(rows).toDF("__tid", "zip", "city")
  }

  val cityFd: Fd = Fd("fd_zip_city", "zip", "city")

  /** Column name carrying the new candidate set of attribute `a` in the
    * reference fix tables.
    */
  def fixCol(a: String): String = s"__fix_$a"

  /** A dirty zip group whose cities are `a`, `b` and null, and a clean one. */
  def nullCities(spark: SparkSession): DataFrame =
    spark.createDataFrame(Seq((0L, "1", "a"), (1L, "1", "b"), (2L, "1", null), (3L, "2", "c")))
      .toDF("__tid", "zip", "city")

  /** Table 4a — Cities for the join example (§4.4, Example 6). */
  def citiesJoin(spark: SparkSession): DataFrame =
    spark.createDataFrame(Seq(
      (0L, "9001", "Los Angeles"),
      (1L, "9001", "San Francisco"),
      (2L, "10001", "San Francisco"),
    )).toDF("__tid", "zip", "city")

  /** Table 4b — Employee (Phone → Zip). */
  def employees(spark: SparkSession): DataFrame =
    spark.createDataFrame(Seq(
      (0L, "10002", "Jon", "12345"),
      (1L, "10001", "Mary", "12345"),
      (2L, "9001", "Peter", "23456"),
    )).toDF("__tid", "ezip", "ename", "phone")

  val empFd: Fd = Fd("fd_phone_zip", "phone", "ezip")

  /** Example 5 — salary/tax/age tuples. */
  def salaries(spark: SparkSession): DataFrame =
    spark.createDataFrame(Seq(
      (1L, 1000.0, 0.1, 31),
      (2L, 3000.0, 0.2, 32),
      (3L, 2000.0, 0.3, 43),
    )).toDF("__tid", "salary", "tax", "age")

  /** Example 5's schema with no rows, and with a null salary in every row. */
  def emptySalaries(spark: SparkSession): DataFrame =
    spark.createDataFrame(Seq.empty[(Long, Double, Double)]).toDF("__tid", "salary", "tax")
  def nullSalaries(spark: SparkSession): DataFrame =
    spark.createDataFrame(Seq((1L, Option.empty[Double], 0.1), (2L, None, 0.3)))
      .toDF("__tid", "salary", "tax")

  val salaryDc: InequalityDc =
    InequalityDc("dc_sal_tax", Seq(Atom("salary", "<"), Atom("tax", ">")))

  val salaryAgeDc: InequalityDc = InequalityDc("dc_sal_age_tax",
    Seq(Atom("salary", "<"), Atom("age", "<"), Atom("tax", ">")))

  /** Candidate sets of a state row as a comparable canonical value:
    * attr -> Seq((value-or-bound, op, rounded p)).
    */
  def candsOf(state: DataFrame, attr: String): Map[Long, Seq[(String, String, Double)]] = {
    import org.apache.spark.sql.functions._
    state.select(col(ProbData.TidCol), col(ProbData.candCol(attr)))
      .collect()
      .map { r =>
        val tid = r.getLong(0)
        val cands = Option(r.getSeq[Row](1)).getOrElse(Seq.empty)
          .map(c => (c.getString(0), c.getString(1), math.rint(c.getDouble(2) * 100) / 100))
          .sortBy(c => (Option(c._1), c._2))
        tid -> cands
      }.toMap
  }

  /** A candidate set rendered as a compact string such as
    * "Los Angeles@0.67|San Francisco@0.33"; a clean cell renders as its
    * base value.
    */
  def candsToString(attr: String): Column = {
    import org.apache.spark.sql.functions._
    val c = col(ProbData.candCol(attr))
    when(c.isNull || size(c) === 0, col(attr).cast(StringType)).otherwise(
      array_join(
        transform(array_sort(c), x =>
          concat(
            when(x.getField("op") === "=", x.getField("v"))
              .otherwise(concat(x.getField("op"), x.getField("v"))),
            lit("@"), format_number(x.getField("p"), 2))),
        "|"))
  }

  /** `clean_σ` of `fd` over the answer `tids` as Daisy runs it: the
    * clean step on the rule's graph with the answer as its members.
    * Returns the cleaned state, the relaxed result and the fixes.
    */
  def cleanSelect(state: DataFrame, tids: DataFrame, fd: Fd,
                  maxIter: Int): (DataFrame, Relaxation.Relaxed, FdRepair.Fixes) = {
    val g = FdGraph.collect(state, fd, FdGraph.memberOf(tids))
    val (st, closure, fixes) = FdRepair.clean(g, maxIter)
    (st, Relaxation.relaxed(g, closure), fixes)
  }

  /** tids of `df` as a sorted list. */
  def tids(df: DataFrame): Seq[Long] = {
    import org.apache.spark.sql.functions._
    df.select(col(df.columns.head)).collect().map(_.getLong(0)).toSeq.sorted
  }
}
