package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import repro.SparkSpec
import repro.data.{Hospital, SSB}
import repro.offline.OfflineCleaner

/** Spark jobs per `Daisy.execute`, which runs one job per driver-side
  * collection and leaves the result to the caller: states and joins are
  * checkpointed lazily, so the next collection stores them, and fix
  * tables reach the tasks as broadcast variables, which run no job.
  * Where a test counts the answer's collection too, that is one more job.
  * On the FD clean path: one signature collection for a cleaned or
  * a pruned query; none for a settled rule, one with no unchecked tuple
  * left in a dirty group, until another rule rewrites the table; none
  * once the rule has switched to full cleaning, which checked every
  * tuple. On the DC path: one collection of the answer's tids, which on
  * the rule's first use also carries the DC attributes of every tuple for
  * the bucketization (detection and repair run on the driver).
  * An SPJ query runs the collection of the join's right part, the
  * collection of the joined lineage (the right tids with their checked
  * marks) and the join-side steps, and, only when a join-side step was
  * not pruned, one collection of the right tuples to re-join, which
  * serves both the removal of their old rows and their re-join. Its
  * joins look the collected rows up, with no join and no shuffle, so the
  * SPJ tests bound stages too.
  * The offline cleaner's Bulk mode runs the collection of the graph or
  * the points and the store of its final state; its per-group mode one
  * signature collection per dirty group plus a constant (the detection,
  * the clean-group pass and the final store), the O(ε·n) shape Table 8
  * depends on. The bounds keep a return to per-iteration or
  * per-intermediate jobs, to a second detection, to jobs that collect
  * nothing or to DataFrame bookkeeping from passing unnoticed.
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

  /** `f`'s result and the classes Spark's code generator compiled for it. */
  private def compilesOf[A](f: => A): (A, Long) = {
    val before = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    val a = f
    (a, CodegenMetrics.METRIC_COMPILATION_TIME.getCount - before)
  }

  test("φ1 on hospital: a cleaned query runs ≤ 2 jobs, a settled one 1") {
    val data = Hospital.generate(spark, nHospitals = 40, rowsPer = 4,
      nTie = 4, nMinority = 4, nZipErr = 4)
    val daisy = Daisy.single(spark, "hospital", data.dirty, Seq(Hospital.Phi1))
    val select = Seq("zip", "city", "provider_id")
    val rest = QuerySpec("hospital", where = Seq(Pred("hospital_type", "=", "type_1")), select = select)

    val (_, cleaned) = jobsOf(daisy.execute(QuerySpec("hospital",
      where = Seq(Pred("hospital_type", "!=", "type_1")), select = select)).collect())
    val first = daisy.lastReport.perRule.head
    assert(!first.skippedByPruning && first.iterations > 1)
    assert(cleaned <= 2, s"cleaned query ran $cleaned jobs")

    val (_, pruned) = jobsOf(daisy.execute(rest).collect())
    assert(daisy.lastReport.perRule.head.skippedByPruning)
    assert(pruned <= 2, s"pruned query ran $pruned jobs")

    // The two queries cover the table: φ1 has no unchecked dirty tuple
    // left, so its later steps are pruned without a collection.
    val (res, inExecute) = jobsOf(daisy.execute(rest))
    assert(daisy.lastReport.perRule.head.skippedByPruning)
    assert(inExecute == 0, s"a settled rule's step ran $inExecute jobs")
    assert(jobsOf(res.collect())._2 == 1)
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

  test("another rule's rewrite of the table clears a settled mark") {
    // φ1 zip → city is violated on z1 only; φ3 phone → zip on p2, whose
    // tuples φ1's first query does not reach.
    val df = spark.createDataFrame(Seq(
        (0L, "z1", "A", "p1", "a"), (1L, "z1", "A", "p1", "a"), (2L, "z1", "B", "p1", "a"),
        (3L, "z2", "C", "p2", "b"), (4L, "z2x", "C", "p2", "b")))
      .toDF("__tid", "zip", "city", "phone", "grp")
    val (phi1, phi3) = (Hospital.Phi1, Hospital.Phi3)
    val d = Daisy.single(spark, "t", df, Seq(phi1, phi3))
    def query(grp: String, attr: String) = QuerySpec("t", where = Seq(Pred("grp", "=", grp)), select = Seq(attr))
    def phi1Pruned = d.lastReport.perRule.map(r => r.ruleId -> r.skippedByPruning) == Seq(phi1.id -> true)

    d.execute(query("a", "city"))
    assert(d.lastReport.perRule.map(_.dirty) == Seq(3))
    val (_, settled) = jobsOf(d.execute(query("b", "city")))
    assert(phi1Pruned && settled == 0, s"φ1 settled, yet its step ran $settled jobs")

    d.execute(query("b", "phone"))
    val rewritten = d.state("t").filter(!ProbData.checkedBy(phi1.id) && ProbData.isDirty("zip"))
    assert(TestData.tids(rewritten.select(ProbData.TidCol)) == Seq(3L, 4L))
    val (_, again) = jobsOf(d.execute(query("b", "city")))
    assert(phi1Pruned && again == 1, s"φ1's step after φ3's rewrite ran $again jobs")

    // Both rules over the whole table.
    d.execute(QuerySpec("t", select = Seq("zip", "city", "phone")))
    val offline = OfflineCleaner.run(df, Seq(phi1, phi3)).state
    def cands(st: org.apache.spark.sql.DataFrame) = Seq("zip", "city", "phone")
      .foldLeft(st)(ProbData.canonCands).select("__tid", "zip__c", "city__c", "phone__c")
      .collect().map(_.toString).sorted.toSeq
    assert(cands(d.state("t")) == cands(offline))
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
    val (_, full) = jobsOf(daisy.execute(band(23400)).collect())
    assert(daisy.lastReport.perRule.head.switchedToFull)
    assert(full <= 2, s"full-cleaning query ran $full jobs")
    val (_, afterFull) = jobsOf(daisy.execute(band(45900)))
    assert(!daisy.lastReport.perRule.head.switchedToFull)
    assert(afterFull <= 1, s"query after full cleaning ran $afterFull jobs")

    // Partial cleaning: the first query's collection also bucketizes,
    // the second query detects over its new tuples only.
    val partial = Daisy.single(spark, "lo", data.dirty, Seq(dc), DaisyOptions(dcThreshold = 1.1))
    val (_, first) = jobsOf(partial.execute(band(23400)))
    assert(first <= 1, s"first partial query ran $first jobs")
    val (_, second) = jobsOf(partial.execute(band(45900)))
    assert(partial.lastReport.perRule.head.dirty > 0)
    assert(second <= 1, s"second partial query ran $second jobs")
  }

  test("offline Bulk cleaning of an FD or a DC runs two jobs") {
    val lineorder = SSB.lineorder(spark, nRows = 400, nOrderkeys = 20, nSuppkeys = 10,
      discountErrPct = 0.05).dirty
    val hospital = Hospital.generate(spark, nHospitals = 40, rowsPer = 4,
      nTie = 4, nMinority = 4, nZipErr = 4).dirty
    for ((df, rule) <- Seq(lineorder -> SSB.PriceDiscountDc, hospital -> Hospital.Phi1)) {
      // The collection of the graph or the points, and the store of the
      // final state, which the run's clock includes.
      val (res, jobs) = jobsOf(OfflineCleaner.run(df, Seq(rule)))
      assert(jobs == 2, s"offline cleaning of ${rule.id} ran $jobs jobs")
      assert(res.state.filter(ProbData.checkedBy(rule.id)).count() > 0)
    }
  }

  test("an SPJ query whose join-side rule is pruned re-joins nothing") {
    val d = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)),
      Map("emp" -> Seq(TestData.empFd)))
    // Peter's phone group is clean, so the join-side rule is pruned.
    val (res, jobs, stages) = countsOf(d.execute(QuerySpec("cities", select = Seq("city", "ename"),
      join = Some(JoinSpec("emp", "zip", "ezip", Seq(Pred("ename", "=", "Peter")))))))
    assert(d.lastReport.perRule.map(_.skippedByPruning) == Seq(true))
    assert(res.count() == 2)
    assert(jobs <= 3, s"SPJ query with a pruned join-side rule ran $jobs jobs")
    assert(stages <= 3, s"SPJ query with a pruned join-side rule ran $stages stages")
  }

  test("an SPJ query that cleans both sides re-joins once") {
    val d = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)),
      Map("cities" -> Seq(TestData.cityFd), "emp" -> Seq(TestData.empFd)))
    // Example 6: both sides are cleaned, then the changed employees re-join.
    val (res, jobs, stages) = countsOf(d.execute(QuerySpec("cities",
      where = Seq(Pred("city", "=", "Los Angeles")), select = Seq("zip", "ename"),
      join = Some(JoinSpec("emp", "zip", "ezip")))))
    assert(d.lastReport.perRule.map(_.skippedByPruning) == Seq(false, false))
    assert(res.count() == 4)
    assert(jobs <= 5, s"SPJ query that re-joins ran $jobs jobs")
    assert(stages <= 5, s"SPJ query that re-joins ran $stages stages")
  }

  test("execute compiles no class for a cleaned φ1 query or a DC band query with new literals") {
    val hospital = Hospital.generate(spark, nHospitals = 40, rowsPer = 4,
      nTie = 4, nMinority = 4, nZipErr = 4)
    val fdSession = Daisy.single(spark, "hospital", hospital.dirty, Seq(Hospital.Phi1))
    val (_, fd) = compilesOf(fdSession.execute(QuerySpec("hospital",
      where = Seq(Pred("hospital_type", "!=", "type_3")), select = Seq("zip", "city", "provider_id"))))
    assert(!fdSession.lastReport.perRule.head.skippedByPruning)
    assert(fd == 0, s"a cleaned φ1 query compiled $fd classes")

    val lineorder = SSB.lineorder(spark, nRows = 400, nOrderkeys = 20, nSuppkeys = 10,
      discountErrPct = 0.05)
    val dcSession = Daisy.single(spark, "lo", lineorder.dirty, Seq(SSB.PriceDiscountDc))
    // Bounds that no other query of the test suites uses.
    val (_, dc) = compilesOf(dcSession.execute(QuerySpec("lo", select = Seq("extendedprice", "discount"),
      where = Seq(Pred("extendedprice", ">=", "31337"), Pred("extendedprice", "<", "52711")))))
    assert(dcSession.lastReport.perRule.head.dcDecision.nonEmpty)
    assert(dc == 0, s"a DC band query compiled $dc classes")

    // Nor does an SPJ query (Example 6): both sides are cleaned, then the
    // changed employees re-join.
    val spjSession = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)),
      Map("cities" -> Seq(TestData.cityFd), "emp" -> Seq(TestData.empFd)))
    val (_, spj) = compilesOf(spjSession.execute(QuerySpec("cities",
      where = Seq(Pred("city", "=", "Los Angeles")), select = Seq("zip", "ename"),
      join = Some(JoinSpec("emp", "zip", "ezip")))))
    assert(spjSession.lastReport.perRule.map(_.skippedByPruning) == Seq(false, false))
    assert(spj == 0, s"an SPJ query that re-joins compiled $spj classes")
  }

  test("per-group offline cleaning runs one job per dirty group plus a constant") {
    val data = SSB.lineorder(spark, nRows = 600, nOrderkeys = 30, nSuppkeys = 8)
    val (res, jobs) = jobsOf(OfflineCleaner.run(data.dirty, Seq(SSB.Phi), OfflineCleaner.Mode.PerGroup))
    val g = res.groupsTotal
    assert(!res.timedOut && res.groupsProcessed == g && g > 10)
    assert(g <= jobs && jobs <= g + 8, s"$jobs jobs for $g dirty groups")
  }
}
