package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Algorithm 1 against the paper's Examples 2/3 and Lemmas 1–3. */
class RelaxationSpec extends SparkSpec {

  private lazy val state = ProbData.init(TestData.cities(spark), Seq(TestData.cityFd))
  private val fd = TestData.cityFd

  private def answer(pred: org.apache.spark.sql.Column) =
    state.filter(pred).select(ProbData.TidCol)

  test("Example 2: rhs filter (city = LA) relaxes with the same-lhs tuple only") {
    val a = answer(col("city") === "Los Angeles") // tuples 0, 2
    val r = Relaxation.relax(state, a, fd, maxIter = 1) // Lemma 1 protocol
    assert(TestData.tids(r.extraTids) == Seq(1L))
    assert(TestData.tids(r.tids) == Seq(0L, 1L, 2L))
  }

  test("Lemma 1: one iteration adds the same-lhs tuples and nothing via rhs") {
    val a = answer(col("city") === "Los Angeles")
    val r = Relaxation.relax(state, a, fd, maxIter = 1)
    assert(r.iterations == 1 && r.extraCount == 1)
  }

  test("one-iteration relaxation equals the SQL semi-join (oracle)") {
    val a = answer(col("city") === "Los Angeles")
    val r = Relaxation.relax(state, a, fd, maxIter = 1)
    val relaxedRows = state.join(r.tids, ProbData.TidCol).select("zip", "city")
    Oracle.assertEquivalent(relaxedRows,
      """SELECT zip, city FROM cities WHERE city = 'Los Angeles'
         OR zip IN (SELECT zip FROM cities WHERE city = 'Los Angeles')
         OR city IN (SELECT city FROM cities WHERE city = 'Los Angeles')""",
      "cities" -> TestData.cities(spark).drop("__tid"))
  }

  test("Example 3: lhs filter (zip = 9001) transitively pulls the whole cluster") {
    val a = answer(col("zip") === "9001") // tuples 0, 1, 2
    val r = Relaxation.relax(state, a, fd)
    // Table 3: tuple {10001, SF} joins via shared rhs, then {10001, NY}
    // via the shared lhs 10001 — the full correlated cluster.
    assert(TestData.tids(r.tids) == Seq(0L, 1L, 2L, 3L, 4L))
    assert(r.iterations >= 2)
  }

  test("relaxation of the full dataset adds nothing") {
    val r = Relaxation.relax(state, state.select(ProbData.TidCol), fd)
    assert(r.extraCount == 0 && TestData.tids(r.tids).size == 5)
  }

  test("relaxation of an empty answer is empty") {
    val r = Relaxation.relax(state, answer(lit(false)), fd)
    assert(r.extraCount == 0 && TestData.tids(r.tids).isEmpty)
  }

  test("uncorrelated tuples stay out of the relaxed result") {
    val df = spark.createDataFrame(Seq(
      (0L, "1", "a"), (1L, "1", "b"), (2L, "2", "c"), (3L, "3", "c"), (4L, "9", "z")))
      .toDF("__tid", "zip", "city")
    val st = ProbData.init(df, Seq(fd))
    val r = Relaxation.relax(st, st.filter(col("zip") === "1").select(ProbData.TidCol), fd)
    assert(TestData.tids(r.tids) == Seq(0L, 1L))
  }

  test("relaxation follows candidate values of already-probabilistic cells") {
    // Clean tuple 4 shares nothing with 9001 directly, but once tuple 3
    // has zip candidates {9001, 10001} it bridges the clusters.
    val fixes = FdRepair.computeFixes(state, state.select(ProbData.TidCol), fd)
    val probState = FdRepair.applyFixes(state, fixes, state.select(ProbData.TidCol), fd)
    val vals3 = probState.filter(col(ProbData.TidCol) === 3L)
      .select(explode(Relaxation.lhsValues(probState, fd)))
      .collect().map(_.getString(0)).sorted
    assert(vals3.toSeq == Seq("10001", "9001"))
  }

  test("multi-attribute lhs values concatenate with the separator") {
    val df = spark.createDataFrame(Seq((0L, "cc", "st", "n"))).toDF("__tid", "a", "b", "c")
    val mfd = Fd("m", Seq("a", "b"), "c")
    val st = ProbData.init(df, Seq(mfd))
    val lv = st.select(explode(Relaxation.lhsValues(st, mfd))).collect().head.getString(0)
    assert(lv == "cc" + Relaxation.Sep + "st")
  }

  // --- Lemma 2: hypergeometric estimate --------------------------------

  test("Lemma 2: zero violations give probability 0") {
    assert(RelaxationEstimates.probExtraViolation(100, 0, 10) == 0.0)
  }

  test("Lemma 2: result covering the complement forces a violation") {
    assert(RelaxationEstimates.probExtraViolation(10, 3, 8) == 1.0)
  }

  test("Lemma 2: probability grows with the result size") {
    val ps = Seq(1L, 5L, 20L, 50L).map(RelaxationEstimates.probExtraViolation(100, 5, _))
    assert(ps == ps.sorted && ps.forall(p => p >= 0 && p <= 1))
  }

  test("Lemma 2: matches the exact hypergeometric on a small case") {
    // n=5, vio=2, |A|=2: Pr(0) = C(3,2)/C(5,2) = 3/10.
    assert(math.abs(RelaxationEstimates.probExtraViolation(5, 2, 2) - 0.7) < 1e-9)
  }

  // --- Lemma 3: relaxed-size upper bound -------------------------------

  test("Lemma 3: upper bound dominates the actual one-iteration growth") {
    val a = answer(col("city") === "Los Angeles")
    val bound = RelaxationEstimates.upperBoundExtra(state, a, Seq(fd.rhs) ++ fd.lhs)
    val r = Relaxation.relax(state, a, fd, maxIter = 1)
    assert(bound >= r.extraCount && bound == 1)
  }

  test("Lemma 3: bound is zero when the result already covers its values") {
    val bound = RelaxationEstimates.upperBoundExtra(state, state.select(ProbData.TidCol),
      Seq("zip", "city"))
    assert(bound == 0)
  }
}
