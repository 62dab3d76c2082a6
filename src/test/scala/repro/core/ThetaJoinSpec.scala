package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.SSB
import repro.core.ProbData.MaterializeOps

/** Partitioned theta-join detection (§4.2) against a naive self-join. */
class ThetaJoinSpec extends SparkSpec {

  private val dc = TestData.salaryDc

  private def mkState(rows: Seq[(Long, Double, Double)]) =
    ProbData.init(
      spark.createDataFrame(rows).toDF("__tid", "salary", "tax"), Seq(dc))

  private lazy val small = mkState(Seq(
    (1L, 1000.0, 0.1), (2L, 3000.0, 0.2), (3L, 2000.0, 0.3),
    (4L, 4000.0, 0.35), (5L, 5000.0, 0.5)))

  test("Example 5 violation: (2000, 0.3) conflicts with (3000, 0.2)") {
    val b = ThetaJoin.bucketize(small, dc, 16)
    val v = ThetaJoin.violations(b.data, dc, ThetaJoin.candidatePairs(dc, b.stats), b.stats)
    val pairs = v.select("__tid1", "__tid2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs == Set((2L, 3L)))
  }

  test("violating pairs equal the DuckDB inequality self-join (oracle)") {
    val b = ThetaJoin.bucketize(small, dc, 16)
    val v = ThetaJoin.violations(b.data, dc, ThetaJoin.candidatePairs(dc, b.stats), b.stats)
      .select(col("__tid1").cast("long").as("t1"), col("__tid2").cast("long").as("t2"))
    Oracle.assertEquivalent(v,
      """SELECT CAST(LEAST(a.__tid, b.__tid) AS BIGINT) AS t1,
                CAST(GREATEST(a.__tid, b.__tid) AS BIGINT) AS t2
         FROM t a JOIN t b
           ON CAST(a.salary AS DOUBLE) < CAST(b.salary AS DOUBLE)
          AND CAST(a.tax AS DOUBLE) > CAST(b.tax AS DOUBLE)""",
      "t" -> small.select("__tid", "salary", "tax"))
  }

  test("partitioned detection matches the naive check on random data for any p") {
    val data = SSB.lineorder(spark, 400, 40, 10, discountErrPct = 0.05)
    val st = ProbData.init(data.dirty, Seq(SSB.PriceDiscountDc))
      .select("__tid", "extendedprice", "discount").materialized
    val dcPd = SSB.PriceDiscountDc

    def vioSet(p: Int): Set[(Long, Long)] = {
      val b = ThetaJoin.bucketize(st, dcPd, p)
      ThetaJoin.violations(b.data, dcPd, ThetaJoin.candidatePairs(dcPd, b.stats), b.stats)
        .select("__tid1", "__tid2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    }
    val naive = vioSet(1)
    assert(naive.nonEmpty, "fixture should contain violations")
    for (p <- Seq(4, 16, 64))
      assert(vioSet(p) == naive, s"p=$p")
  }

  test("bucketize splits into ceil(sqrt(p)) ranges covering min..max") {
    val b = ThetaJoin.bucketize(small, dc, 16)
    assert(b.nRanges == 4)
    assert(b.stats.map(_.count).sum == 5)
    assert(b.lo == 1000.0 && b.hi == 5000.0)
  }

  test("candidate pairs prune boundary-incompatible partitions") {
    // Monotone data (tax grows with salary) in separated buckets cannot
    // violate across distant buckets.
    val mono = mkState((1L to 40L).map(i => (i, i * 100.0, i * 0.01)))
    val b = ThetaJoin.bucketize(mono, dc, 16)
    val pairs = ThetaJoin.candidatePairs(dc, b.stats)
    val all = (for { i <- 0 until 4; j <- i until 4 } yield (i, j)).size
    assert(pairs.size < all, s"expected pruning, got ${pairs.size}/$all")
    val v = ThetaJoin.violations(b.data, dc, pairs, b.stats)
    assert(v.count() == 0)
  }

  test("violations excludes pairs where both sides were already seen") {
    val b = ThetaJoin.bucketize(small, dc, 16)
    val flagged = b.data.withColumn("__seen", col("__tid").isin(2L, 3L))
    val v = ThetaJoin.violations(flagged, dc, ThetaJoin.candidatePairs(dc, b.stats), b.stats)
    assert(v.count() == 0)
  }

  test("violations keeps pairs with one new endpoint") {
    val b = ThetaJoin.bucketize(small, dc, 16)
    val flagged = b.data.withColumn("__seen", col("__tid") === 2L)
    val v = ThetaJoin.violations(flagged, dc, ThetaJoin.candidatePairs(dc, b.stats), b.stats)
    assert(v.count() == 1)
  }

  test("dir records the violating orientation") {
    val b = ThetaJoin.bucketize(small, dc, 16)
    val v = ThetaJoin.violations(b.data, dc, ThetaJoin.candidatePairs(dc, b.stats), b.stats)
      .collect().head
    // tid1=2 (3000, 0.2), tid2=3 (2000, 0.3): t2 < t1 in salary and
    // t2.tax > t1.tax ⇒ orientation "21".
    assert(v.getAs[String]("dir") == "21")
  }

  test("estimateErrors is zero for clean monotone data") {
    val mono = mkState((1L to 40L).map(i => (i, i * 100.0, i * 0.01)))
    val b = ThetaJoin.bucketize(mono, dc, 16)
    val est = ThetaJoin.estimateErrors(dc, b.stats)
    // off-diagonal pairs of monotone data have no tax-boundary overlap.
    val offDiag = est.collect { case ((i, j), e) if i != j => e }
    assert(offDiag.forall(_ == 0.0))
  }

  test("decide: empty answer with errors elsewhere demands full cleaning") {
    val b = ThetaJoin.bucketize(small, dc, 16)
    val d = ThetaJoin.decide(dc, b.stats, Set(0), Set.empty, 1L, 0.5)
    assert(d.errShare >= 0.0 && d.support >= 0.0 && d.support <= 1.0)
  }

  test("decide: checked pairs lower the outside-error estimate") {
    val b = ThetaJoin.bucketize(small, dc, 16)
    val pairs = ThetaJoin.candidatePairs(dc, b.stats)
    val none = ThetaJoin.decide(dc, b.stats, Set.empty, Set.empty, 10L, 0.5)
    val all  = ThetaJoin.decide(dc, b.stats, Set.empty, pairs.toSet, 10L, 0.5)
    assert(all.estErrorsOutside <= none.estErrorsOutside)
    assert(all.support == 1.0)
  }

  test("decide: full cleaning triggered when the error share exceeds the threshold") {
    val b = ThetaJoin.bucketize(small, dc, 16)
    val d = ThetaJoin.decide(dc, b.stats, Set.empty, Set.empty, 0L, 0.0)
    assert(d.fullCleaning == (d.errShare > 0.0))
  }

  test("an empty table or an all-null axis gives no buckets and no violations") {
    for (df <- Seq(TestData.emptySalaries(spark), TestData.nullSalaries(spark))) {
      val b = ThetaJoin.bucketize(ProbData.init(df, Seq(dc)), dc, 16)
      assert(b.stats.isEmpty)
      assert(ThetaJoin.violations(b.data, dc, ThetaJoin.candidatePairs(dc, b.stats), b.stats)
        .count() == 0)
    }
  }

  test("tuples with a null axis value get no bucket and leave the others' stats intact") {
    val st = ProbData.init(spark.createDataFrame(Seq((1L, Some(1000.0), 0.1),
      (2L, None, 0.9), (3L, Some(3000.0), 0.05))).toDF("__tid", "salary", "tax"), Seq(dc))
    val b = ThetaJoin.bucketize(st, dc, 4)
    assert(b.stats.map(_.count).sum == 2)
    assert(b.data.filter(col("__b").isNull).select("__tid").collect().map(_.getLong(0)).toSeq == Seq(2L))
    val v = ThetaJoin.violations(b.data, dc, ThetaJoin.candidatePairs(dc, b.stats), b.stats)
    assert(v.select("__tid1", "__tid2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet ==
      Set((1L, 3L)))
  }
}
