package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import repro.SparkSpec
import repro.data.{Hospital, SSB}
import repro.offline.OfflineCleaner

/** Spark jobs per `Daisy.execute`, which runs only the jobs of the
  * cleaning and of a materialized join: it leaves the result to the
  * caller and counts it only when `ExecReport.resultRows` is read (one
  * job). On the FD clean path: one signature collection, the broadcast
  * of the fix table and one materialized state rewrite for a cleaned
  * query; the collection alone for a pruned one; none once the rule has
  * switched to full cleaning, which checked every tuple. On the DC path: one
  * collection of the answer's tids, which on the rule's first use also
  * carries the DC attributes of every tuple for the bucketization, then
  * the broadcast of the fix table and one materialized state rewrite
  * (detection and repair run on the driver); a query whose detection
  * finds no new pair rewrites nothing.
  * An SPJ query runs the materialized join (its right part broadcast,
  * one job), the collection of its lineage (the right tids with their
  * checked marks) and the join-side steps, and re-joins the right tuples
  * once only when a join-side step was not pruned. Its joins run no
  * shuffle, so the SPJ tests bound stages too.
  * The offline cleaner's per-group mode runs one signature collection
  * per dirty group plus a constant (the initial materialization, the
  * detection, one rewrite and the clean-group pass), the O(ε·n) shape
  * Table 8 depends on. Its DC branch runs the initial materialization,
  * the collection of the points, the broadcast and one rewrite. The
  * bounds keep a return to per-iteration or per-intermediate jobs, to a
  * second detection or to DataFrame bookkeeping from passing unnoticed.
  */
class DaisyJobCountSpec extends SparkSpec {

  /** `f`'s result, the Spark jobs it ran and the stages they ran (a
    * skipped stage is not counted).
    */
  private def countsOf[A](f: => A): (A, Int, Int) = {
    val sc = spark.sparkContext
    ListenerBusDrain.drain(sc)
    val (jobs, stages) = (new AtomicInteger, new AtomicInteger)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stages.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      val a = f
      ListenerBusDrain.drain(sc)
      (a, jobs.get, stages.get)
    } finally sc.removeSparkListener(listener)
  }

  private def jobsOf[A](f: => A): (A, Int) = { val (a, jobs, _) = countsOf(f); (a, jobs) }

  test("φ1 on a small hospital table: a cleaned query runs ≤ 3 jobs, a pruned one ≤ 1") {
    val data = Hospital.generate(spark, nHospitals = 40, rowsPer = 4,
      nTie = 4, nMinority = 4, nZipErr = 4)
    val daisy = Daisy.single(spark, "hospital", data.dirty, Seq(Hospital.Phi1))
    val select = Seq("zip", "city", "provider_id")

    val (_, cleaned) = jobsOf(daisy.execute(QuerySpec("hospital",
      where = Seq(Pred("hospital_type", "!=", "type_1")), select = select)))
    val first = daisy.lastReport.perRule.head
    assert(!first.skippedByPruning && first.iterations > 1)
    assert(cleaned <= 3, s"cleaned query ran $cleaned jobs")

    val (_, pruned) = jobsOf(daisy.execute(QuerySpec("hospital",
      where = Seq(Pred("hospital_type", "=", "type_1")), select = select)))
    assert(daisy.lastReport.perRule.head.skippedByPruning)
    assert(pruned <= 1, s"pruned query ran $pruned jobs")
  }

  test("φ1 after the switch to full cleaning: a later query runs no clean job") {
    val data = Hospital.generate(spark, nHospitals = 40, rowsPer = 4,
      nTie = 4, nMinority = 4, nZipErr = 4)
    val daisy = Daisy.single(spark, "hospital", data.dirty, Seq(Hospital.Phi1))
    val select = Seq("zip", "city", "provider_id")
    daisy.execute(QuerySpec("hospital", where = Seq(Pred("hospital_type", "!=", "type_1")),
      select = select))
    daisy.fullCleanRemaining("hospital", Hospital.Phi1)
    val before = daisy.state("hospital")

    val (_, jobs) = jobsOf(daisy.execute(QuerySpec("hospital",
      where = Seq(Pred("hospital_type", "=", "type_1")), select = select)))
    assert(daisy.lastReport.plan.steps.map(_.placement) == Seq(Planner.BeforeFilter))
    val rep = daisy.lastReport.perRule.head
    assert(rep.switchedToFull && rep.dirty == 0 && !rep.skippedByPruning, s"report $rep")
    assert(jobs == 0, s"query after the switch ran $jobs jobs")
    assert(daisy.state("hospital") eq before, "the query replaced the state")
  }

  test("price/discount DC on a small lineorder table: one detection per cleaned query") {
    val data = SSB.lineorder(spark, nRows = 400, nOrderkeys = 20, nSuppkeys = 10,
      discountErrPct = 0.05)
    val dc = SSB.PriceDiscountDc
    def band(lo: Int) = QuerySpec("lo", select = Seq("extendedprice", "discount"),
      where = Seq(Pred("extendedprice", ">=", lo.toString),
        Pred("extendedprice", "<", (lo + 22500).toString)))

    // Algorithm 2 switches the first query to full cleaning; afterwards
    // every bucket is seen, so a later query needs no detection.
    val daisy = Daisy.single(spark, "lo", data.dirty, Seq(dc))
    val (_, full) = jobsOf(daisy.execute(band(23400)))
    assert(daisy.lastReport.perRule.head.switchedToFull)
    assert(full <= 3, s"full-cleaning query ran $full jobs")
    val (_, afterFull) = jobsOf(daisy.execute(band(45900)))
    assert(!daisy.lastReport.perRule.head.switchedToFull)
    assert(afterFull <= 1, s"query after full cleaning ran $afterFull jobs")

    // Partial cleaning: the first query's collection also bucketizes,
    // the second query detects over its new tuples only.
    val partial = Daisy.single(spark, "lo", data.dirty, Seq(dc), DaisyOptions(dcThreshold = 1.1))
    val (_, first) = jobsOf(partial.execute(band(23400)))
    assert(first <= 3, s"first partial query ran $first jobs")
    val (_, second) = jobsOf(partial.execute(band(45900)))
    assert(partial.lastReport.perRule.head.dirty > 0)
    assert(second <= 3, s"second partial query ran $second jobs")
  }

  test("offline cleaning of a DC runs four jobs") {
    val data = SSB.lineorder(spark, nRows = 400, nOrderkeys = 20, nSuppkeys = 10,
      discountErrPct = 0.05)
    val (res, jobs) = jobsOf(OfflineCleaner.run(data.dirty, Seq(SSB.PriceDiscountDc)))
    assert(res.state.filter(ProbData.checkedBy(SSB.PriceDiscountDc.id)).count() > 0)
    assert(jobs <= 4, s"offline DC cleaning ran $jobs jobs")
  }

  test("an SPJ query whose join-side rule is pruned re-joins nothing") {
    val d = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)),
      Map("emp" -> Seq(TestData.empFd)))
    // Peter's phone group is clean, so the join-side rule is pruned.
    val (_, jobs, stages) = countsOf(d.execute(QuerySpec("cities", select = Seq("city", "ename"),
      join = Some(JoinSpec("emp", "zip", "ezip", Seq(Pred("ename", "=", "Peter")))))))
    assert(d.lastReport.perRule.map(_.skippedByPruning) == Seq(true))
    assert(d.lastReport.resultRows == 2)
    assert(jobs <= 4, s"SPJ query with a pruned join-side rule ran $jobs jobs")
    assert(stages <= 4, s"SPJ query with a pruned join-side rule ran $stages stages")
  }

  test("an SPJ query that cleans both sides re-joins once") {
    val d = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)),
      Map("cities" -> Seq(TestData.cityFd), "emp" -> Seq(TestData.empFd)))
    // Example 6: both sides are cleaned, then the changed employees re-join.
    val (_, jobs, stages) = countsOf(d.execute(QuerySpec("cities",
      where = Seq(Pred("city", "=", "Los Angeles")), select = Seq("zip", "ename"),
      join = Some(JoinSpec("emp", "zip", "ezip")))))
    assert(d.lastReport.perRule.map(_.skippedByPruning) == Seq(false, false))
    assert(d.lastReport.resultRows == 4)
    assert(jobs <= 12, s"SPJ query that re-joins ran $jobs jobs")
    assert(stages <= 12, s"SPJ query that re-joins ran $stages stages")
  }

  test("resultRows counts each query's own result in one job, on first read") {
    val data = Hospital.generate(spark, nHospitals = 40, rowsPer = 4,
      nTie = 4, nMinority = 4, nZipErr = 4)
    val hospital = Daisy.single(spark, "hospital", data.dirty, Seq(Hospital.Phi1))
    val select = Seq("zip", "city", "provider_id")
    def joins(rules: Map[String, Seq[Rule]]) = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)), rules)
    // (shape, session, query, whether its rule steps are pruned)
    val shapes = Seq(
      ("cleaned SP", hospital, QuerySpec("hospital",
        where = Seq(Pred("hospital_type", "!=", "type_1")), select = select), Seq(false)),
      ("pruned SP", hospital, QuerySpec("hospital",
        where = Seq(Pred("hospital_type", "=", "type_1")), select = select), Seq(true)),
      ("group-by", hospital, QuerySpec("hospital", groupBy = Seq("city"),
        aggs = Seq(Agg("count", "provider_id", "n"))), Seq(true)),
      ("SPJ without a re-join", joins(Map("emp" -> Seq(TestData.empFd))), QuerySpec("cities",
        select = Seq("city", "ename"),
        join = Some(JoinSpec("emp", "zip", "ezip", Seq(Pred("ename", "=", "Peter"))))), Seq(true)),
      ("SPJ with a re-join", joins(Map("cities" -> Seq(TestData.cityFd), "emp" -> Seq(TestData.empFd))),
        QuerySpec("cities", where = Seq(Pred("city", "=", "Los Angeles")), select = Seq("zip", "ename"),
          join = Some(JoinSpec("emp", "zip", "ezip"))), Seq(false, false)))
    val runs = shapes.map { case (shape, d, q, pruned) =>
      val res = d.execute(q)
      assert(d.lastReport.perRule.map(_.skippedByPruning) == pruned, shape)
      (shape, d.lastReport, res.count())
    }
    // Every report is read after all five queries ran: each hospital
    // report after the later queries of its own session.
    for ((shape, report, expected) <- runs) {
      val (rows, jobs) = jobsOf(report.resultRows)
      assert(rows == expected, shape)
      assert(jobs == 1, s"$shape: reading resultRows ran $jobs jobs")
      assert(jobsOf(report.resultRows) == (expected, 0), s"$shape: a second read")
    }
    assert(runs.map(_._3).distinct.size == runs.size, "the shapes' counts must tell them apart")
  }

  test("per-group offline cleaning runs one job per dirty group plus a constant") {
    val data = SSB.lineorder(spark, nRows = 600, nOrderkeys = 30, nSuppkeys = 8)
    val (res, jobs) = jobsOf(OfflineCleaner.run(data.dirty, Seq(SSB.Phi), OfflineCleaner.Mode.PerGroup))
    val g = res.groupsTotal
    assert(!res.timedOut && res.groupsProcessed == g && g > 10)
    assert(g <= jobs && jobs <= g + 8, s"$jobs jobs for $g dirty groups")
  }
}
