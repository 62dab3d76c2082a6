package repro.exp

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.data.{AirQuality, Hospital, Nestle}
import repro.holoclean.HolocleanLite
import repro.core.ProbData.MaterializeOps

/** Evaluation workloads and a miniature end-to-end run of each table
  * experiment (the full-size runs live in bench/).
  */
class WorkloadsSpec extends SparkSpec {

  test("hospital workload: 4 whole-dataset SP queries touching the rule attrs") {
    val w = Workloads.hospitalWorkload(Seq("zip", "city"))
    assert(w.size == 4)
    assert(w.forall(_.accessedAttrs.contains("zip")))
    assert(w.map(_.where.head.value).distinct.size == 4)
  }

  test("hospital workload covers every row exactly once") {
    val data = Hospital.generate(spark, 20, 4, 2, 2, 2, 1)
    val counts = Workloads.hospitalWorkload(Seq("zip", "city")).map { q =>
      data.dirty.filter(col(q.where.head.attr) === q.where.head.value).count()
    }
    assert(counts.sum == data.dirty.count())
  }

  test("nestle workload: 37 queries over 6 coffee categories (~40% coverage)") {
    val w = Workloads.nestleWorkload()
    assert(w.size == 37)
    val cats = w.map(_.where.head.value).distinct
    assert(cats.size == 6)
    val data = Nestle.generate(spark, 5000, 100)
    val covered = data.dirty.filter(col("category").isin(cats: _*)).count()
    val frac = covered.toDouble / data.dirty.count()
    assert(frac > 0.25 && frac < 0.55, s"coverage $frac")
  }

  test("air-quality workload: 52 per-county aggregate queries") {
    val w = Workloads.airQualityWorkload(200)
    assert(w.size == 52)
    assert(w.forall(q => q.groupBy == Seq("year") && q.aggs.head.func == "avg"))
    assert(w.map(_.where.map(_.value).mkString).distinct.size > 40)
  }

  test("miniature Table 5: DaisyP trails the inference systems on φ1, all recover with 3 rules") {
    val rows = Table5.run(spark, nHospitals = 60)
    def row(sys: String, rs: String) = rows.find(r => r.system == sys && r.ruleSet == rs).get
    // φ1 only: blind most-probable picking is clearly worse in precision.
    assert(row("DaisyP", "phi1").precision < row("DaisyH", "phi1").precision)
    assert(row("DaisyP", "phi1").precision < row("Holoclean", "phi1").precision)
    // φ1 alone cannot reach the zip errors: recall bounded low.
    assert(row("DaisyH", "phi1").recall < 0.8)
    // With all three rules every system is accurate.
    for (sys <- Seq("Holoclean", "DaisyH", "DaisyP")) {
      assert(row(sys, "phi1+phi2+phi3").f1 > 0.75, s"$sys F1")
      assert(row(sys, "phi1+phi2+phi3").recall > row(sys, "phi1").recall, s"$sys recall")
    }
  }

  test("miniature Table 8 air-quality query answers match the clean data for clean counties") {
    val data = AirQuality.generate(spark, 3000, 40, violationShare = 0.3)
    val daisy = Daisy.single(spark, "air", data.dirty, Seq(AirQuality.Phi))
    // County 0 is in the frequent (clean) head.
    val res = daisy.execute(QuerySpec("air",
      where = Seq(Pred("county_code", "=", "cc_0"), Pred("state_code", "=", "st_0")),
      groupBy = Seq("year"), aggs = Seq(Agg("avg", "co", "avg_co"))))
    val expected = data.clean.filter(col("county_code") === "cc_0" && col("state_code") === "st_0")
      .groupBy("year").agg(avg("co").as("avg_co"))
    val got = res.collect().map(r => (r.getString(0), math.rint(r.getDouble(1) * 1e6))).toMap
    val exp = expected.collect().map(r => (r.getString(0), math.rint(r.getDouble(1) * 1e6))).toMap
    assert(got == exp)
  }

  test("miniature Table 7 scenario: the second rule costs less in one session than from scratch") {
    val data = Hospital.generate(spark, 40, 6, 4, 4, 4, 2)
    val workload = Workloads.hospitalWorkload(Hospital.Rules.flatMap(_.attrs).distinct)

    val d1 = Daisy.single(spark, "hospital", data.dirty, Seq(Hospital.Phi1))
    workload.foreach(d1.execute)
    d1.addRule("hospital", Hospital.Phi2)
    workload.foreach(d1.execute)

    // The incremental session ends with the same state as a fresh
    // two-rule session (commutativity of the merge, Lemma 4).
    val d2 = Daisy.single(spark, "hospital", data.dirty,
      Seq(Hospital.Phi1, Hospital.Phi2))
    workload.foreach(d2.execute)

    def canon(d: Daisy) = {
      val st = d.state("hospital")
      Seq("zip", "city").foldLeft(st)((df, a) => df.withColumn(a + "_v", TestData.candsToString(a)))
        .select("__tid", "zip_v", "city_v")
        .collect().map(_.toSeq.mkString("|")).sorted.toSeq
    }
    assert(canon(d1) == canon(d2))
  }

  test("DaisyP/DaisyH/Holoclean produce disjointly-derived but comparable update sets") {
    val data = Hospital.generate(spark, 40, 6, 4, 4, 4, 2)
    val fds = Seq(Hospital.Phi1)
    val d = Daisy.single(spark, "hospital", data.dirty, fds)
    Workloads.hospitalWorkload(fds.flatMap(_.attrs).distinct).foreach(d.execute)
    val doms = HolocleanLite.daisyDomains(d.state("hospital"), Seq("zip", "city"))
      .materialized
    assert(doms.count() > 0)
    val dp = HolocleanLite.daisyP(doms).updates.count()
    val dh = HolocleanLite.runDaisyH(data.dirty, doms, fds).updates.count()
    assert(dp > 0 && dh > 0)
  }
}
