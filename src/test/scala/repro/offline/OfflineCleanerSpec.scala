package repro.offline

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.data.{Hospital, SSB}

/** Offline comparator: bulk and per-group modes must agree. */
class OfflineCleanerSpec extends SparkSpec {

  private val fd = TestData.cityFd

  /** tid → canonical candidate sets of `attrs` and the sorted checked marks. */
  private def canon(state: DataFrame, attrs: Seq[String]): Map[Long, Seq[Any]] =
    attrs.foldLeft(state)((df, a) => ProbData.canonCands(df, a))
      .select((col(ProbData.TidCol) +: attrs.map(a => col(ProbData.candCol(a))) :+
        array_sort(col(ProbData.ChkCol))): _*)
      .collect().map(r => r.getLong(0) -> r.toSeq.tail).toMap

  /** Runs both modes on `df`, asserts equal states, returns the per-group run. */
  private def perGroupEqualsBulk(df: DataFrame, rules: Seq[Fd]): OfflineCleaner.Result = {
    val attrs = rules.flatMap(_.attrs).distinct
    val bulk = OfflineCleaner.run(df, rules, OfflineCleaner.Mode.Bulk)
    val perG = OfflineCleaner.run(df, rules, OfflineCleaner.Mode.PerGroup)
    assert(!perG.timedOut && perG.groupsProcessed == bulk.groupsProcessed)
    assert(canon(perG.state, attrs) == canon(bulk.state, attrs))
    perG
  }

  test("bulk mode produces the Table 2b probabilistic dataset") {
    val res = OfflineCleaner.run(TestData.cities(spark), Seq(fd))
    val city = TestData.candsOf(res.state, "city")
    assert(city(0L) == Seq(("Los Angeles", "=", 0.67), ("San Francisco", "=", 0.33)))
    assert(city(3L) == Seq(("New York", "=", 0.5), ("San Francisco", "=", 0.5)))
    assert(!res.timedOut)
  }

  test("per-group mode equals bulk mode on the cities fixture") {
    assert(perGroupEqualsBulk(TestData.cities(spark), Seq(fd)).groupsProcessed == 2)
    // The same with a null city in the dirty group.
    assert(perGroupEqualsBulk(TestData.nullCities(spark), Seq(fd)).groupsProcessed == 1)
  }

  test("per-group mode equals bulk mode on generated SSB and hospital data") {
    perGroupEqualsBulk(SSB.lineorder(spark, 600, 30, 8).dirty, Seq(SSB.Phi))
    val hosp = Hospital.generate(spark, nHospitals = 40, rowsPer = 6,
      nTie = 4, nMinority = 5, nZipErr = 5, zipErrRows = 2)
    perGroupEqualsBulk(hosp.dirty, Hospital.Rules)
  }

  test("timeout aborts the per-group loop and reports partial progress") {
    val data = SSB.lineorder(spark, 2000, 200, 20)
    val res = OfflineCleaner.run(data.dirty, Seq(SSB.Phi),
      OfflineCleaner.Mode.PerGroup, timeoutSec = 0.0)
    assert(res.timedOut)
    assert(res.groupsProcessed < res.groupsTotal || res.groupsTotal == 0)
    // Only the groups the loop reached are checked; the tuples of the
    // others stay unchecked and certain.
    val dirty = FdGraph.collect(ProbData.init(data.dirty, Seq(SSB.Phi)), SSB.Phi, lit(true))
      .dirtyGroups(_ => true).keys.toSeq
    val inDirty = res.state.filter(col("orderkey").isin(dirty: _*))
    val checked = ProbData.checkedBy(SSB.Phi.id)
    assert(inDirty.filter(checked).select("orderkey").distinct().count() == res.groupsProcessed &&
      inDirty.filter(!checked && (ProbData.isDirty("orderkey") || ProbData.isDirty("suppkey")))
        .count() == 0)
  }

  test("multiple rules are applied sequentially and merged") {
    val df = spark.createDataFrame(Seq(
      (0L, "9001", "LA", "hospA"), (1L, "9001", "SF", "hospA"),
      (2L, "10001", "NY", "hospB"), (3L, "10002", "NY", "hospB")))
      .toDF("__tid", "zip", "city", "name")
    val phi2 = Fd("phi2", "name", "zip")
    val res = OfflineCleaner.run(df, Seq(fd, phi2))
    // φ1 gives city candidates in group 9001; φ2 gives zip candidates
    // for hospB (two zips for one name).
    assert(TestData.candsOf(res.state, "city")(0L).nonEmpty)
    assert(TestData.candsOf(res.state, "zip")(2L).map(c => (c._1, c._2)) ==
      Seq(("10001", "="), ("10002", "=")))
  }

  test("DC rule: offline full theta-join repairs Example 5") {
    val res = OfflineCleaner.run(TestData.salaries(spark), Seq(TestData.salaryDc))
    val sal = TestData.candsOf(res.state, "salary")
    assert(sal(2L) == Seq(("2000.0", "<", 0.5), ("3000.0", "=", 0.5)))
  }

  test("clean input passes through untouched") {
    val df = spark.createDataFrame(Seq((0L, "1", "a"), (1L, "2", "b")))
      .toDF("__tid", "zip", "city")
    val res = OfflineCleaner.run(df, Seq(fd))
    assert(res.state.filter(ProbData.isDirty("city")).count() == 0)
    assert(res.groupsTotal == 0)
  }

  test("an FD and an inequality DC on the same attribute are rejected") {
    assertThrows[IllegalArgumentException] {
      OfflineCleaner.run(TestData.salaries(spark), Seq(Fd("fd_age_tax", "age", "tax"), TestData.salaryDc))
    }
  }

  test("a DC over an empty table or an all-null attribute leaves the table clean") {
    for ((df, n) <- Seq(TestData.emptySalaries(spark) -> 0L, TestData.nullSalaries(spark) -> 2L)) {
      val st = OfflineCleaner.run(df, Seq(TestData.salaryDc)).state
      assert(st.count() == n)
      assert(st.filter(ProbData.isDirty("salary") || ProbData.isDirty("tax") ||
        ProbData.checkedBy(TestData.salaryDc.id)).count() == 0)
    }
  }
}
