package repro.core

import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.ProbData.MaterializeOps

/** Holistic DC repair against Example 5. */
class DcRepairSpec extends SparkSpec {

  private val dc = TestData.salaryDc

  private lazy val state = ProbData.init(TestData.salaries(spark), Seq(dc))

  private lazy val vios = {
    val b = ThetaJoin.bucketize(state, dc, 4)
    ThetaJoin.violations(b.data, dc, ThetaJoin.candidatePairs(dc, b.stats), b.stats)
      .materialized
  }

  private lazy val repaired = {
    val fixes = DcRepair.fixes(vios, dc)
    val touched = vios.select(col("__tid1").as("__tid"))
      .union(vios.select(col("__tid2").as("__tid"))).distinct()
    DcRepair.applyFixesOverwrite(state, fixes, touched, dc)
  }

  test("Example 5: t2 salary candidates are {<2000 50%, 3000 50%}") {
    val sal = TestData.candsOf(repaired, "salary")
    assert(sal(2L) == Seq(("2000.0", "<", 0.5), ("3000.0", "=", 0.5)))
  }

  test("Example 5: t2 tax candidates are {0.2 50%, >0.3 50%}") {
    val tax = TestData.candsOf(repaired, "tax")
    assert(tax(2L) == Seq(("0.2", "=", 0.5), ("0.3", ">", 0.5)))
  }

  test("Example 5: t3 gets the symmetric fixes (salary > 3000 or tax < 0.2)") {
    val sal = TestData.candsOf(repaired, "salary")
    val tax = TestData.candsOf(repaired, "tax")
    assert(sal(3L) == Seq(("2000.0", "=", 0.5), ("3000.0", ">", 0.5)))
    assert(tax(3L) == Seq(("0.2", "<", 0.5), ("0.3", "=", 0.5)))
  }

  test("the non-violating tuple keeps clean cells") {
    assert(TestData.candsOf(repaired, "salary")(1L).isEmpty)
    assert(TestData.candsOf(repaired, "tax")(1L).isEmpty)
  }

  test("applyFixesOverwrite scans the state once and joins nothing") {
    val touched = vios.select(col("__tid1").as("__tid"))
      .union(vios.select(col("__tid2").as("__tid"))).distinct()
    val out = DcRepair.applyFixesOverwrite(state.materialized, DcRepair.fixes(vios, dc), touched, dc)
    val plan = out.queryExecution.executedPlan
    // The state is the only input with a `__chk` column.
    assert(plan.collectLeaves().count(_.output.exists(_.name == ProbData.ChkCol)) == 1, plan.toString)
    assert(plan.collect { case j: BaseJoinExec => j }.isEmpty, plan.toString)
    assert(TestData.candsOf(out, "salary") == TestData.candsOf(repaired, "salary"))
    assert(out.filter(ProbData.checkedBy(dc.id)).count() == 2)
  }

  test("violating tuples are marked checked") {
    assert(repaired.filter(ProbData.checkedBy(dc.id)).count() == 2)
  }

  test("candidate probabilities of each cell sum to 1") {
    for (a <- dc.attrs) {
      val sums = repaired.filter(ProbData.isDirty(a))
        .select(aggregate(col(ProbData.candCol(a)), lit(0.0), (acc, c) => acc + c.getField("p")))
        .collect().map(_.getDouble(0))
      assert(sums.nonEmpty)
      sums.foreach(s => assert(math.abs(s - 1.0) < 1e-9))
    }
  }

  test("three-atom DC produces the age fix as well (Example 5, φ2)") {
    val dc3 = TestData.salaryAgeDc
    val st = ProbData.init(TestData.salaries(spark), Seq(dc3))
    val b = ThetaJoin.bucketize(st, dc3, 4)
    val v3 = ThetaJoin.violations(b.data, dc3, ThetaJoin.candidatePairs(dc3, b.stats), b.stats)
    // t3 (2000, 0.3, 43) vs t2 (3000, 0.2, 32): sal 2000<3000, age 43<32
    // is FALSE — so with the age atom the pair no longer violates.
    assert(v3.count() == 0)

    // Make it violate: age of t3 below t2's.
    val df = spark.createDataFrame(Seq(
      (2L, 3000.0, 0.2, 32.0), (3L, 2000.0, 0.3, 30.0)))
      .toDF("__tid", "salary", "tax", "age")
    val st2 = ProbData.init(df, Seq(dc3))
    val b2 = ThetaJoin.bucketize(st2, dc3, 4)
    val v = ThetaJoin.violations(b2.data, dc3, ThetaJoin.candidatePairs(dc3, b2.stats), b2.stats)
    assert(v.count() == 1)
    val fixes = DcRepair.fixes(v, dc3)
    val touched = v.select(col("__tid1").as("__tid"))
      .union(v.select(col("__tid2").as("__tid"))).distinct()
    val rep = DcRepair.applyFixesOverwrite(st2, fixes, touched, dc3)
    val age = TestData.candsOf(rep, "age")
    // k = 3 single-atom fixes: each attr keeps orig with 2/3, range 1/3.
    // tid2 is the t2-role of atom t1.age < t2.age, so its inversion
    // moves its age below the partner's (age < 30).
    assert(age(2L) == Seq(("30.0", "<", 0.33), ("32.0", "=", 0.67)))
    val sal = TestData.candsOf(rep, "salary")
    assert(sal(2L) == Seq(("2000.0", "<", 0.33), ("3000.0", "=", 0.67)))
  }

  test("maxFixAtoms = 2 enumerates pairwise combinations with frequency probabilities") {
    val fixes = DcRepair.fixes(vios, dc, maxFixAtoms = 2)
    val sal2 = fixes.filter(col("__tid") === 2L && col("attr") === "salary")
      .select(explode(col("cands")).as("c")).select("c.v", "c.op", "c.p")
      .collect().map(r => (r.getString(0), r.getString(1), math.rint(r.getDouble(2) * 100) / 100))
      .sortBy(t => (t._1, t._2))
    // 3 fix subsets ({sal}, {tax}, {sal,tax}); salary changes in 2 of 3.
    assert(sal2.toSeq == Seq(("2000.0", "<", 0.67), ("3000.0", "=", 0.33)))
  }

  test("a tuple violating with several partners merges range candidates by frequency") {
    val df = spark.createDataFrame(Seq(
      (1L, 100.0, 0.9), (2L, 200.0, 0.5), (3L, 300.0, 0.4)))
      .toDF("__tid", "salary", "tax")
    val st = ProbData.init(df, Seq(dc))
    val b = ThetaJoin.bucketize(st, dc, 1)
    val v = ThetaJoin.violations(b.data, dc, ThetaJoin.candidatePairs(dc, b.stats), b.stats)
    assert(v.count() == 3) // (1,2), (1,3), (2,3)
    val fixes = DcRepair.fixes(v, dc)
    val t1sal = fixes.filter(col("__tid") === 1L && col("attr") === "salary")
      .select(explode(col("cands")).as("c")).select("c.v", "c.op", "c.n")
      .collect().map(r => (r.getString(0), r.getString(1), r.getLong(2))).sortBy(_._1)
    // t1 plays the low-salary role against both partners: orig kept in
    // one fix per pair (n=2 total), and two distinct > bounds (n=1 each).
    assert(t1sal.toSeq == Seq(("100.0", "=", 2L), ("200.0", ">", 1L), ("300.0", ">", 1L)))
  }
}
