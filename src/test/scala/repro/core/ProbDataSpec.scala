package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.ProbData.MaterializeOps

/** Probabilistic representation: encoding, qualification, merge. */
class ProbDataSpec extends SparkSpec {

  private lazy val state = ProbData.init(TestData.cities(spark), Seq(TestData.cityFd))

  private lazy val probState = {
    val all = state.select(ProbData.TidCol)
    val fixes = FdRepair.computeFixes(state, all, TestData.cityFd)
    FdRepair.applyFixes(state, fixes, all, TestData.cityFd).materialized
  }

  test("init adds tid, chk and candidate sidecars") {
    assert(state.columns.contains("__tid"))
    assert(state.columns.contains("__chk"))
    assert(state.columns.contains("zip__c") && state.columns.contains("city__c"))
  }

  test("init keeps existing tids") {
    assert(TestData.tids(state.select("__tid")) == Seq(0L, 1L, 2L, 3L, 4L))
  }

  test("valuesExpr of a clean cell is the base value") {
    val vals = state.select(ProbData.valuesExpr(state, "city").as("v"))
      .collect().map(_.getSeq[String](0))
    assert(vals.forall(_.size == 1))
  }

  test("valuesExpr of a dirty cell lists every equality candidate") {
    val v = probState.filter(col("__tid") === 1L)
      .select(ProbData.valuesExpr(probState, "zip").as("v"))
      .collect().head.getSeq[String](0).sorted
    assert(v == Seq("10001", "9001"))
  }

  test("qualifies: clean cells filter on the base value") {
    val q = state.filter(ProbData.qualifies(state, Pred("city", "=", "New York")))
    assert(TestData.tids(q.select("__tid")) == Seq(4L))
  }

  test("qualifies: a tuple qualifies iff at least one candidate qualifies") {
    // Tuple 3 (10001, SF) has zip candidates {9001, 10001} — it now
    // qualifies zip = 9001 (the fourth tuple of Table 3).
    val q = probState.filter(ProbData.qualifies(probState, Pred("zip", "=", "9001")))
    assert(TestData.tids(q.select("__tid")) == Seq(0L, 1L, 2L, 3L))
  }

  test("probabilistic qualification equals SQL EXISTS over the exploded candidates (oracle)") {
    val exploded = probState.select(col("__tid"),
        explode(ProbData.valuesExpr(probState, "zip")).as("zv"))
    val q = probState.filter(ProbData.qualifies(probState, Pred("zip", "=", "9001")))
      .select(col("__tid").cast("long").as("tid"))
    Oracle.assertEquivalent(q,
      "SELECT DISTINCT CAST(__tid AS BIGINT) AS tid FROM cand WHERE zv = '9001'",
      "cand" -> exploded)
  }

  test("qualifies with inequality predicates on numeric strings") {
    val q = state.filter(ProbData.qualifies(state, Pred("zip", ">", "9500")))
    assert(TestData.tids(q.select("__tid")) == Seq(3L, 4L))
  }

  test("range candidates qualify intersecting inequality predicates") {
    val df = spark.createDataFrame(Seq((0L, "100.0"))).toDF("__tid", "v")
    val st = df.withColumn("v__c", typedLit(Seq(("50.0", "<", 0.5, "DC", 1L), ("100.0", "=", 0.5, "DC", 1L)))
      .cast(ProbData.CandType))
    // candidate "<50" means some value below 50 — qualifies v < 10.
    assert(st.filter(ProbData.qualifies(st, Pred("v", "<", "10"))).count() == 1)
    // but cannot satisfy v > 120 (both candidates below 120).
    assert(st.filter(ProbData.qualifies(st, Pred("v", ">", "120"))).count() == 0)
  }

  test("qualifiesAll is a conjunction") {
    val q = state.filter(ProbData.qualifiesAll(state,
      Seq(Pred("zip", "=", "9001"), Pred("city", "=", "Los Angeles"))))
    assert(TestData.tids(q.select("__tid")) == Seq(0L, 2L))
  }

  test("qualifiesAll with no predicates keeps everything") {
    assert(state.filter(ProbData.qualifiesAll(state, Nil)).count() == 5)
  }

  test("isDirty flags only probabilistic cells") {
    assert(probState.filter(ProbData.isDirty("city")).count() == 5)
    assert(probState.filter(ProbData.isDirty("zip")).count() == 2)
    assert(state.filter(ProbData.isDirty("zip")).count() == 0)
  }

  test("markChecked / checkedBy round-trip") {
    val some = state.filter(col("__tid") < 2).select("__tid")
    val marked = FdReference.markChecked(state, some, "r1")
    assert(marked.filter(ProbData.checkedBy("r1")).count() == 2)
    assert(marked.filter(ProbData.checkedBy("r2")).count() == 0)
  }

  test("mergeCandSeqs: union by value with support-weighted probabilities") {
    def c(v: String, n: Long) = Row(v, "=", 0.0, "R", n)
    val m = ProbData.mergeCandSeqs(Seq(c("a", 2), c("b", 1)), Seq(c("a", 1), c("c", 1)))
    val byV = m.map(r => r.getString(0) -> (r.getDouble(2), r.getLong(4))).toMap
    assert(byV("a") == (0.6, 3L) && byV("b") == (0.2, 1L) && byV("c") == (0.2, 1L))
  }

  test("mergeCandSeqs is commutative (Lemma 4)") {
    def c(v: String, n: Long, w: String) = Row(v, "=", 0.0, w, n)
    val xs = Seq(c("a", 2, "R"), c("b", 1, "R"))
    val ys = Seq(c("a", 1, "L"), c("c", 4, "L"))
    assert(ProbData.mergeCandSeqs(xs, ys) == ProbData.mergeCandSeqs(ys, xs))
  }

  test("mergeCandSeqs is associative up to float error") {
    def c(v: String, n: Long) = Row(v, "=", 0.0, "R", n)
    val a = Seq(c("x", 1)); val b = Seq(c("y", 2)); val d = Seq(c("x", 3))
    val l = ProbData.mergeCandSeqs(ProbData.mergeCandSeqs(a, b), d)
    val r = ProbData.mergeCandSeqs(a, ProbData.mergeCandSeqs(b, d))
    assert(l.map(x => (x.getString(0), x.getLong(4))) == r.map(x => (x.getString(0), x.getLong(4))))
  }

  test("mergeCandSeqs with a null side returns the other side") {
    def c(v: String, n: Long) = Row(v, "=", 1.0, "R", n)
    val m = ProbData.mergeCandSeqs(null, Seq(c("a", 1)))
    assert(m.map(_.getString(0)) == Seq("a"))
    assert(ProbData.mergeCandSeqs(null, null) == null)
  }

  test("mergeCandSeqs keeps range candidates distinct from equality candidates") {
    val m = ProbData.mergeCandSeqs(
      Seq(Row("5", "=", 0.0, "DC", 1L)), Seq(Row("5", "<", 0.0, "DC", 1L)))
    assert(m.size == 2)
  }

  test("candsToString renders value@prob pairs") {
    val s = probState.filter(col("__tid") === 4L)
      .select(TestData.candsToString("city").as("s")).collect().head.getString(0)
    assert(s == "New York@0.50|San Francisco@0.50")
  }

  test("candsToString of a clean cell is the base value") {
    val s = probState.filter(col("__tid") === 4L)
      .select(TestData.candsToString("zip").as("s")).collect().head.getString(0)
    assert(s == "10001")
  }

  test("materialized keeps sizeInBytes bounded across self-join generations") {
    // localCheckpoint would carry each generation's join estimate into
    // the next one, so the estimate compounds; the stats-free leaf
    // reports the same size in every generation.
    var df = spark.range(100).toDF("k").materialized
    val sizes = (1 to 8).map { _ =>
      val other = df.groupBy("k").count().withColumnRenamed("k", "k2")
      df = df.join(other, col("k") === col("k2")).drop("k2", "count")
        .join(other.withColumnRenamed("k2", "k3"), col("k") === col("k3")).drop("k3", "count")
        .materialized
      df.queryExecution.optimizedPlan.stats.sizeInBytes
    }
    assert(sizes.distinct == Seq(BigInt(spark.conf.get("spark.sql.defaultSizeInBytes"))),
      s"sizeInBytes per generation: $sizes")
    assert(df.count() == 100)
  }
}
