package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.ProbData.MaterializeOps

/** clean_σ of an FD and the probabilistic/incremental join (§4.1, §4.4). */
class CleanOpsSpec extends SparkSpec {

  private lazy val state = ProbData.init(TestData.cities(spark), Seq(TestData.cityFd))
  private val fd = TestData.cityFd

  test("clean_σ on a rhs filter relaxes, repairs and marks checked") {
    val a = state.filter(col("city") === "Los Angeles").select("__tid")
    val (out, relaxed, fixes) = TestData.cleanSelect(state, a, fd, maxIter = 1)
    assert(TestData.tids(relaxed.tids) == Seq(0L, 1L, 2L))
    assert(fixes.nDirty == 3)
    assert(out.filter(ProbData.checkedBy(fd.id)).count() == 3)
    val city = TestData.candsOf(out, "city")
    assert(city(0L) == Seq(("Los Angeles", "=", 0.67), ("San Francisco", "=", 0.33)))
  }

  test("clean_σ skips tuples already checked by the rule") {
    val a = state.filter(col("city") === "Los Angeles").select("__tid")
    val (once, _, _) = TestData.cleanSelect(state, a, fd, maxIter = 1)
    val (twice, _, twiceFixes) = TestData.cleanSelect(once, a, fd, maxIter = 1)
    assert(twiceFixes.nDirty == 0)
    // Probabilities unchanged after the no-op second pass.
    val city = TestData.candsOf(twice, "city")
    assert(city(0L) == Seq(("Los Angeles", "=", 0.67), ("San Francisco", "=", 0.33)))
  }

  // ---- probabilistic join: Example 6 / Table 4 -------------------------

  private lazy val citiesJ = ProbData.init(TestData.citiesJoin(spark), Seq(fd))
  private lazy val emps    = ProbData.init(TestData.employees(spark), Seq(TestData.empFd))

  test("dirty join result misses pairs hidden by errors (Table 4c, oracle)") {
    val la = citiesJ.filter(col("city") === "Los Angeles")
    val j = CleanOps.probEquiJoin(la, emps, "zip", "ezip")
    Oracle.assertEquivalent(j.select(col("zip"), col("ename").as("name")),
      """SELECT c.zip AS zip, e.ename AS name FROM cities c JOIN emp e ON c.zip = e.ezip
         WHERE c.city = 'Los Angeles'""",
      "cities" -> TestData.citiesJoin(spark).drop("__tid"),
      "emp" -> TestData.employees(spark).drop("__tid"))
  }

  test("Example 6: after clean_σ the relaxed city part has probabilistic zips (Table 4d)") {
    val a = citiesJ.filter(col("city") === "Los Angeles").select("__tid")
    val (out, _, _) = TestData.cleanSelect(citiesJ, a, fd, maxIter = 1)
    val zip = TestData.candsOf(out, "zip")
    assert(zip(1L) == Seq(("10001", "=", 0.5), ("9001", "=", 0.5)))
  }

  test("Example 6: probabilistic join matches on candidate overlap (Table 4e)") {
    val a = citiesJ.filter(col("city") === "Los Angeles").select("__tid")
    val cleanedC = TestData.cleanSelect(citiesJ, a, fd, maxIter = 1)._1
    val laPart = cleanedC.filter(ProbData.qualifies(cleanedC, Pred("city", "=", "Los Angeles")))
    val j = CleanOps.probEquiJoin(laPart, emps, "zip", "ezip")
    val pairs = j.select("__ltid", "__rtid").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    // t0 (9001) ⋈ Peter (9001); t1 {9001,10001} ⋈ Peter and Mary.
    assert(pairs == Set((0L, 2L), (1L, 2L), (1L, 1L)))
  }

  test("Example 6: cleaning the employee side adds Jon via phone → zip (Table 4e)") {
    val a = citiesJ.filter(col("city") === "Los Angeles").select("__tid")
    val cleanedC = TestData.cleanSelect(citiesJ, a, fd, maxIter = 1)._1
    val laPart = cleanedC.filter(ProbData.qualifies(cleanedC, Pred("city", "=", "Los Angeles")))
      .materialized
    val j0 = CleanOps.probEquiJoin(laPart, emps, "zip", "ezip")
    val rq = j0.select(col("__rtid").as("__tid"))
    val (outE, _, _) = TestData.cleanSelect(emps, rq, TestData.empFd, maxIter = 20)
    // Jon and Mary share phone 12345 with different zips → both get
    // candidates {10001 50%, 10002 50%}.
    val ez = TestData.candsOf(outE, "ezip")
    assert(ez(0L) == Seq(("10001", "=", 0.5), ("10002", "=", 0.5)))
    assert(ez(1L) == Seq(("10001", "=", 0.5), ("10002", "=", 0.5)))

    val changed = outE.filter(ProbData.isDirty("ezip")).select("__tid")
    val j1 = CleanOps.incrementalJoin(j0, laPart,
      outE.join(changed, "__tid"), "zip", "ezip")
    val names = j1.select("ename").collect().map(_.getString(0)).toSet
    assert(names == Set("Peter", "Mary", "Jon"))
  }

  test("incremental join equals recomputing the full probabilistic join (Lemma 5)") {
    val a = citiesJ.filter(col("city") === "Los Angeles").select("__tid")
    val cleanedC = TestData.cleanSelect(citiesJ, a, fd, maxIter = 1)._1
    val laPart = cleanedC.filter(ProbData.qualifies(cleanedC, Pred("city", "=", "Los Angeles")))
      .materialized
    val j0 = CleanOps.probEquiJoin(laPart, emps, "zip", "ezip")
    val rq = j0.select(col("__rtid").as("__tid"))
    val cleanedE = TestData.cleanSelect(emps, rq, TestData.empFd, maxIter = 20)._1.materialized

    val changed = cleanedE.filter(ProbData.isDirty("ezip")).select("__tid")
    val incr = CleanOps.incrementalJoin(j0, laPart, cleanedE.join(changed, "__tid"),
      "zip", "ezip")
    val full = CleanOps.probEquiJoin(laPart, cleanedE, "zip", "ezip")
    // Whole rows, candidate sets included: a re-joined right tuple
    // carries its cleaned candidates, not the pre-clean row. The checked
    // marks are cleaning bookkeeping: Peter's mark changes while his
    // candidates do not, so his rows are not re-joined.
    val cols = full.columns.filterNot(Set(ProbData.ChkCol, "__rchk"))
    def rows(df: DataFrame) = df.select(cols.map(col): _*).collect().map(_.toString).sorted.toSeq
    assert(rows(incr) == rows(full))
  }

  test("probEquiJoin keeps lineage tids of both sides") {
    val j = CleanOps.probEquiJoin(citiesJ, emps, "zip", "ezip")
    assert(j.columns.contains("__ltid") && j.columns.contains("__rtid"))
  }

  test("probEquiJoin on clean keys equals a plain equi-join (oracle)") {
    val j = CleanOps.probEquiJoin(citiesJ, emps, "zip", "ezip")
      .select(col("city"), col("ename").as("name"))
    Oracle.assertEquivalent(j,
      "SELECT c.city AS city, e.ename AS name FROM cities c JOIN emp e ON c.zip = e.ezip",
      "cities" -> TestData.citiesJoin(spark).drop("__tid"),
      "emp" -> TestData.employees(spark).drop("__tid"))
  }

  test("probEquiJoin and incrementalJoin plan no join and no shuffle") {
    val a = citiesJ.filter(col("city") === "Los Angeles").select("__tid")
    val cleanedC = TestData.cleanSelect(citiesJ, a, fd, maxIter = 1)._1
    val laPart = cleanedC.filter(ProbData.qualifies(cleanedC, Pred("city", "=", "Los Angeles")))
    val empState = emps.materialized
    val j0 = CleanOps.probEquiJoin(laPart, empState, "zip", "ezip")
    val cleanedE = TestData.cleanSelect(empState, j0.select(col("__rtid").as("__tid")),
      TestData.empFd, maxIter = 20)._1
    val j1 = CleanOps.incrementalJoin(j0, laPart, cleanedE.filter(ProbData.isDirty("ezip")),
      "zip", "ezip")
    // Both look the right tuples up in one collection of them.
    for (df <- Seq(j0, j1)) {
      val plan = df.queryExecution.executedPlan
      assert(plan.collect { case s: ShuffleExchangeExec => s }.isEmpty, plan)
      assert(plan.collect { case j: BaseJoinExec => j }.isEmpty, plan)
    }
  }
}
