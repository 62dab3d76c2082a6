package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** FD detection/repair against the paper's worked Example 2 (Tables 2a/2b). */
class FdRepairSpec extends SparkSpec {

  private lazy val state = ProbData.init(TestData.cities(spark), Seq(TestData.cityFd))
  private val fd = TestData.cityFd

  private def allTids = state.select(ProbData.TidCol)

  test("violating groups found by lhs group-by (oracle-checked)") {
    val groups = FdGraph.collect(state, fd, lit(true)).dirtyGroups(_.in)
    assert(groups.keys.toSeq.sorted == Seq("10001", "9001"))
    Oracle.assertEquivalent(
      spark.createDataFrame(groups.toSeq.map { case (lv, rvs) => (lv, rvs.keys.count(_ != null).toLong) })
        .toDF("lv", "ndr"),
      "SELECT zip AS lv, COUNT(DISTINCT city) AS ndr FROM cities GROUP BY zip HAVING COUNT(DISTINCT city) > 1",
      "cities" -> TestData.cities(spark).drop("__tid"))
  }

  test("all five tuples of the cities dataset are in dirty groups") {
    val fixes = FdRepair.computeFixes(state, allTids, fd)
    assert(fixes.nDirty == 5)
    assert(fixes.nDirtyGroups == 2)
  }

  private lazy val cleaned = {
    val fixes = FdRepair.computeFixes(state, allTids, fd)
    FdRepair.applyFixes(state, fixes, allTids, fd)
  }

  test("Table 2b: city candidates of the 9001 group are {LA 67%, SF 33%}") {
    val city = TestData.candsOf(cleaned, "city")
    for (t <- Seq(0L, 1L, 2L))
      assert(city(t) == Seq(("Los Angeles", "=", 0.67), ("San Francisco", "=", 0.33)),
        s"tuple $t")
  }

  test("Table 2b: city candidates of the 10001 group are {SF 50%, NY 50%}") {
    val city = TestData.candsOf(cleaned, "city")
    for (t <- Seq(3L, 4L))
      assert(city(t) == Seq(("New York", "=", 0.5), ("San Francisco", "=", 0.5)), s"tuple $t")
  }

  test("Table 2b: zip candidates {9001 50%, 10001 50%} exactly for the SF tuples") {
    val zip = TestData.candsOf(cleaned, "zip")
    assert(zip(1L) == Seq(("10001", "=", 0.5), ("9001", "=", 0.5)))
    assert(zip(3L) == Seq(("10001", "=", 0.5), ("9001", "=", 0.5)))
  }

  test("Table 2b: zip stays clean where the city value determines it") {
    val zip = TestData.candsOf(cleaned, "zip")
    assert(zip(0L).isEmpty && zip(2L).isEmpty, "Los Angeles rows keep zip")
    assert(zip(4L).isEmpty, "New York row keeps zip")
  }

  test("base columns keep the original values (provenance)") {
    val orig = TestData.cities(spark).collect().map(r => (r.getLong(0), r.getString(1), r.getString(2))).sortBy(_._1)
    val now  = cleaned.select("__tid", "zip", "city").collect()
      .map(r => (r.getLong(0), r.getString(1), r.getString(2))).sortBy(_._1)
    assert(orig.toSeq == now.toSeq)
  }

  test("every tuple of the subset is marked checked") {
    assert(cleaned.filter(ProbData.checkedBy(fd.id)).count() == 5)
  }

  test("probabilities of each dirty cell sum to 1") {
    for (a <- Seq("zip", "city")) {
      val sums = cleaned.filter(ProbData.isDirty(a))
        .select(aggregate(col(ProbData.candCol(a)), lit(0.0), (acc, c) => acc + c.getField("p")))
        .collect().map(_.getDouble(0))
      sums.foreach(s => assert(math.abs(s - 1.0) < 1e-9))
    }
  }

  test("candidate supports record group frequencies") {
    val row = cleaned.filter(col(ProbData.TidCol) === 0L)
      .select(explode(col(ProbData.candCol("city"))).as("c")).select("c.v", "c.n")
      .collect().map(r => (r.getString(0), r.getLong(1))).toMap
    assert(row == Map("Los Angeles" -> 2L, "San Francisco" -> 1L))
  }

  test("a clean dataset yields no fixes") {
    val clean = ProbData.init(
      spark.createDataFrame(Seq((0L, "1", "a"), (1L, "1", "a"), (2L, "2", "b")))
        .toDF("__tid", "zip", "city"), Seq(fd))
    val fixes = FdRepair.computeFixes(clean, clean.select(ProbData.TidCol), fd)
    assert(fixes.nDirty == 0 && fixes.nDirtyGroups == 0)
  }

  test("repair restricted to a subset only sees the subset's statistics") {
    val sub = state.filter(col(ProbData.TidCol) < 3).select(ProbData.TidCol)
    val fixes = FdRepair.computeFixes(state, sub, fd)
    assert(fixes.nDirty == 3) // only the 9001 group
    val applied = FdRepair.applyFixes(state, fixes, sub, fd)
    assert(applied.filter(ProbData.checkedBy(fd.id)).count() == 3)
    assert(TestData.candsOf(applied, "city")(3L).isEmpty)
  }

  test("applying the same rule twice does not double-count (checked tuples skipped upstream)") {
    // applyFixes merges; Daisy guards by excluding checked tuples, so a
    // second computeFixes over an already-checked subset is the caller's
    // bug — but merging identical sets keeps probabilities stable.
    val fixes = FdRepair.computeFixes(cleaned, allTids, fd)
    val twice = FdRepair.applyFixes(cleaned, fixes, allTids, fd)
    val city = TestData.candsOf(twice, "city")
    assert(city(0L) == Seq(("Los Angeles", "=", 0.67), ("San Francisco", "=", 0.33)))
  }

  test("multi-attribute lhs detection and rhs repair") {
    val df = spark.createDataFrame(Seq(
      (0L, "cc1", "st1", "A"), (1L, "cc1", "st1", "B"),
      (2L, "cc1", "st2", "C"), (3L, "cc2", "st1", "C"),
    )).toDF("__tid", "cc", "st", "name")
    val mfd = Fd("m", Seq("cc", "st"), "name")
    val st = ProbData.init(df, Seq(mfd))
    val fixes = FdRepair.computeFixes(st, st.select(ProbData.TidCol), mfd)
    assert(fixes.nDirty == 2 && fixes.nDirtyGroups == 1)
    val applied = FdRepair.applyFixes(st, fixes, st.select(ProbData.TidCol), mfd)
    val name = TestData.candsOf(applied, "name")
    assert(name(0L) == Seq(("A", "=", 0.5), ("B", "=", 0.5)))
    assert(name(2L).isEmpty && name(3L).isEmpty)
  }

  test("dirty city cells carry two candidates on average") {
    val avgSize = cleaned.filter(ProbData.isDirty("city"))
      .select(avg(size(col(ProbData.candCol("city"))))).collect().head.getDouble(0)
    assert(avgSize == 2.0)
  }
}
