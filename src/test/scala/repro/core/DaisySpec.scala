package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.SSB
import repro.offline.OfflineCleaner

/** End-to-end Daisy sessions (§6): query-driven gradual cleaning. */
class DaisySpec extends SparkSpec {

  private val fd = TestData.cityFd

  private def freshDaisy(opts: DaisyOptions = DaisyOptions()) =
    Daisy.single(spark, "cities", TestData.cities(spark), Seq(fd), opts)

  // Canonical probabilistic view for state comparisons.
  private def canon(state: DataFrame, attrs: Seq[String]): Seq[String] =
    attrs.foldLeft(state)((df, a) => df.withColumn(a + "_v", TestData.candsToString(a)))
      .select((Seq("__tid") ++ attrs.map(_ + "_v")).map(col): _*)
      .collect().map(_.toSeq.mkString("|")).sorted.toSeq

  test("a query on a clean attribute of a dirty table returns the dirty rows (oracle)") {
    val d = Daisy.single(spark, "t",
      spark.createDataFrame(Seq((0L, "1", "a", "x"), (1L, "1", "b", "y")))
        .toDF("__tid", "zip", "city", "other"),
      Seq(fd))
    val res = d.execute(QuerySpec("t", where = Seq(Pred("other", "=", "x")),
      select = Seq("other")))
    Oracle.assertEquivalent(res.select("other"),
      "SELECT other FROM t WHERE other = 'x'",
      "t" -> spark.createDataFrame(Seq(("x")).map(Tuple1(_))).toDF("other"))
    assert(d.lastReport.plan.steps.isEmpty)
  }

  test("SP query with rhs filter: result includes repaired candidate tuples") {
    val d = freshDaisy()
    val res = d.execute(QuerySpec("cities",
      where = Seq(Pred("city", "=", "Los Angeles")), select = Seq("zip", "city")))
    // Tuples 0, 1, 2 all carry the LA candidate after cleaning.
    assert(res.count() == 3)
    assert(d.lastReport.perRule.head.dirty == 3)
  }

  test("Example 3 query zip = 9001 returns the four qualifying tuples of Table 3") {
    val d = freshDaisy()
    val res = d.execute(QuerySpec("cities",
      where = Seq(Pred("zip", "=", "9001")), select = Seq("zip", "city")))
    // Tuples 0,1,2 plus tuple 3 whose zip candidates include 9001.
    assert(res.count() == 4)
  }

  test("gradual cleaning: a workload covering the dataset converges to the offline state") {
    val d = freshDaisy()
    d.execute(QuerySpec("cities", where = Seq(Pred("zip", "=", "9001")),
      select = Seq("zip", "city")))
    d.execute(QuerySpec("cities", where = Seq(Pred("zip", "=", "10001")),
      select = Seq("zip", "city")))
    val offline = OfflineCleaner.run(TestData.cities(spark), Seq(fd))
    assert(canon(d.state("cities"), Seq("zip", "city")) ==
      canon(offline.state, Seq("zip", "city")))
  }

  test("queries after full coverage skip cleaning via the checked flags") {
    val d = freshDaisy()
    d.execute(QuerySpec("cities", where = Seq(Pred("zip", "=", "9001")),
      select = Seq("zip", "city")))
    d.execute(QuerySpec("cities", where = Seq(Pred("zip", "=", "10001")),
      select = Seq("zip", "city")))
    val r3 = d.execute(QuerySpec("cities", where = Seq(Pred("zip", "=", "9001")),
      select = Seq("zip", "city")))
    assert(r3.count() == 4)
    val rep = d.lastReport.perRule.head
    assert(rep.dirty == 0 || rep.skippedByPruning)
  }

  test("dirty-group pruning skips rules when the answer has no dirty values") {
    val df = spark.createDataFrame(Seq(
      (0L, "1", "a"), (1L, "1", "b"), (2L, "7", "k"), (3L, "8", "k")))
      .toDF("__tid", "zip", "city")
    val d = Daisy.single(spark, "t", df, Seq(fd))
    d.execute(QuerySpec("t", where = Seq(Pred("city", "=", "k")), select = Seq("zip", "city")))
    assert(d.lastReport.perRule.head.skippedByPruning)
    // ...and the state stays untouched for those tuples.
    assert(d.state("t").filter(ProbData.isDirty("city")).count() == 0)
  }

  test("group-by query cleans below the aggregation and aggregates qualifying tuples") {
    val rows = Seq(
      (0L, "1", "a", 10.0), (1L, "1", "b", 20.0), (2L, "2", "a", 30.0), (3L, "3", "c", 40.0))
    val df = spark.createDataFrame(rows).toDF("__tid", "zip", "city", "score")
    val d = Daisy.single(spark, "t", df, Seq(fd))
    val res = d.execute(QuerySpec("t", where = Seq(Pred("city", "=", "a")),
      groupBy = Seq("city"), aggs = Seq(Agg("sum", "score", "s"))))
    // Tuples 0,1 (group 1 dirty: candidates a/b) and 2 qualify city=a.
    val got = res.collect().map(r => (r.getString(0), r.getDouble(1))).toMap
    assert(got.values.sum == 60.0)
  }

  test("aggregate without grouping works") {
    val d = freshDaisy()
    val res = d.execute(QuerySpec("cities", where = Seq(Pred("zip", "=", "10001")),
      aggs = Seq(Agg("count", "zip", "n"))))
    assert(res.collect().head.getLong(0) > 0)
  }

  test("SPJ: join cleaning updates both relations and the join result (Example 6)") {
    val d = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)),
      Map("cities" -> Seq(fd), "emp" -> Seq(TestData.empFd)))
    val res = d.execute(QuerySpec("cities",
      where = Seq(Pred("city", "=", "Los Angeles")),
      select = Seq("zip", "ename"),
      join = Some(JoinSpec("emp", "zip", "ezip"))))
    val names = res.select("ename").collect().map(_.getString(0)).toSet
    assert(names == Set("Peter", "Mary", "Jon"))
    // Both relations were updated in place.
    assert(d.state("cities").filter(ProbData.isDirty("zip")).count() == 1)
    assert(d.state("emp").filter(ProbData.isDirty("ezip")).count() == 2)
  }

  test("SPJ: the join result carries the cleaned right candidates and honours rightWhere") {
    def session() = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)),
      Map("cities" -> Seq(fd), "emp" -> Seq(TestData.empFd)))
    def query(rightWhere: Seq[Pred]) = QuerySpec("cities",
      where = Seq(Pred("city", "=", "Los Angeles")), select = Seq("zip", "ename", "ezip"),
      join = Some(JoinSpec("emp", "zip", "ezip", rightWhere)))
    def ezips(df: DataFrame, tid: String) =
      ProbData.canonCands(df, "ezip").select(col(tid), col("ezip__c")).collect()
        .map(r => r.getLong(0) -> Option(r.getSeq[Any](1)).map(_.mkString("|")).orNull).toSet

    val d = session()
    val res = d.execute(query(Nil))
    // Every result row shows its employee's candidates as in the state:
    // Mary (1) {10001 50%, 10002 50%} on her row with t1, not a stale null.
    val state = ezips(d.state("emp"), "__tid").toMap
    val rows = ezips(res, "__rtid")
    assert(rows.map(_._1) == Set(0L, 1L, 2L))
    rows.foreach { case (t, c) => assert(c == state(t), s"employee $t") }
    assert(state(1L) != null)

    val noJon = session().execute(query(Seq(Pred("ename", "!=", "Jon"))))
    assert(noJon.select("ename").collect().map(_.getString(0)).toSet == Set("Peter", "Mary"))
  }

  test("SPJ: every joined right tuple carries its checked marks from the state") {
    val d = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)),
      Map("cities" -> Seq(fd), "emp" -> Seq(TestData.empFd)))
    // No projection, so the result keeps the right side's `__rchk`.
    val res = d.execute(QuerySpec("cities", where = Seq(Pred("city", "=", "Los Angeles")),
      join = Some(JoinSpec("emp", "zip", "ezip"))))
    assert(!d.lastReport.perRule.find(_.ruleId == TestData.empFd.id).get.skippedByPruning)
    def marks(df: DataFrame, tid: String, chk: String) =
      df.select(tid, chk).collect().map(r => r.getLong(0) -> r.getSeq[String](1).sorted.toSeq).toSet
    val state = marks(d.state("emp"), "__tid", ProbData.ChkCol).toMap
    val rows = marks(res, "__rtid", "__rchk")
    assert(rows.map(_._1) == Set(0L, 1L, 2L))
    rows.foreach { case (t, c) => assert(c == state(t), s"employee $t") }
    // Peter (2): checked by the join-side step, his candidates unchanged.
    assert(state(2L) == Seq(TestData.empFd.id))
  }

  test("Daisy and the offline cleaner reject a relation without __tid") {
    val noTid = TestData.cities(spark).drop("__tid")
    for (f <- Seq(() => Daisy.single(spark, "cities", noTid, Seq(fd)),
                  () => OfflineCleaner.run(noTid, Seq(fd)))) {
      val e = intercept[IllegalArgumentException](f())
      assert(e.getMessage.contains("__tid"), e.getMessage)
    }
  }

  test("a join-side rule switched to full cleaning takes the full-clean route") {
    val d = new Daisy(spark,
      Map("cities" -> TestData.citiesJoin(spark), "emp" -> TestData.employees(spark)),
      Map("cities" -> Seq(fd), "emp" -> Seq(TestData.empFd)))
    val q = QuerySpec("cities", where = Seq(Pred("city", "=", "Los Angeles")),
      select = Seq("zip", "ename"), join = Some(JoinSpec("emp", "zip", "ezip")))
    d.execute(q)
    // Force the switch on the right table: its tracker exists after the
    // first join-side step, and a full clean marks it switched.
    d.fullCleanRemaining("emp", TestData.empFd)
    val res = d.execute(q)
    val step = d.lastReport.plan.steps.find(_.isJoinSide).get
    assert(step.placement == Planner.BeforeFilter)
    val rep = d.lastReport.perRule.find(_.ruleId == TestData.empFd.id).get
    assert(rep.switchedToFull && rep.iterations == 0, s"join-side report $rep")
    assert(d.state("emp").filter(!ProbData.checkedBy(TestData.empFd.id)).count() == 0)
    assert(res.select("ename").collect().map(_.getString(0)).toSet == Set("Peter", "Mary", "Jon"))
  }

  test("DC rule: incremental detection repairs the Example 5 violation at query time") {
    val d = Daisy.single(spark, "sal", TestData.salaries(spark), Seq(TestData.salaryDc),
      DaisyOptions(dcThreshold = 1.1)) // never force full cleaning
    d.execute(QuerySpec("sal", where = Seq(Pred("salary", ">=", "2000")),
      select = Seq("salary", "tax")))
    val sal = TestData.candsOf(d.state("sal"), "salary")
    assert(sal(2L) == Seq(("2000.0", "<", 0.5), ("3000.0", "=", 0.5)))
    assert(d.lastReport.perRule.head.dcDecision.isDefined)
  }

  test("DC rule: low predicted accuracy falls back to full cleaning (Algorithm 2)") {
    val d = Daisy.single(spark, "sal", TestData.salaries(spark), Seq(TestData.salaryDc),
      DaisyOptions(dcThreshold = 0.0))
    d.execute(QuerySpec("sal", where = Seq(Pred("salary", "<", "1500")),
      select = Seq("salary", "tax")))
    val dec = d.lastReport.perRule.head.dcDecision
    // The violating pair lies outside the tiny answer: with threshold 0
    // any estimated outside error forces the full pass, which finds it.
    val sal = TestData.candsOf(d.state("sal"), "salary")
    assert(sal(2L).nonEmpty, s"decision was $dec")
  }

  test("incremental DC checking never re-checks seen×seen pairs") {
    val d = Daisy.single(spark, "sal", TestData.salaries(spark), Seq(TestData.salaryDc),
      DaisyOptions(dcThreshold = 1.1))
    d.execute(QuerySpec("sal", where = Seq(Pred("salary", ">=", "1000")),
      select = Seq("salary", "tax")))
    val before = TestData.candsOf(d.state("sal"), "salary")
    d.execute(QuerySpec("sal", where = Seq(Pred("salary", ">=", "1000")),
      select = Seq("salary", "tax")))
    val after = TestData.candsOf(d.state("sal"), "salary")
    assert(before == after, "re-querying must not change the fixes")
  }

  test("cost-model switch cleans the remaining dirty part once") {
    val data = SSB.lineorder(spark, 2000, 50, 10)
    val d = Daisy.single(spark, "lo", data.dirty, Seq(SSB.Phi))
    // Narrow repeated queries eventually trip the inequality.
    var switched = false
    for (i <- 0 until 30 if !switched) {
      d.execute(QuerySpec("lo", where = Seq(Pred("orderkey", "=", s"o_${i % 50}")),
        select = Seq("orderkey", "suppkey")))
      switched = d.lastReport.perRule.exists(_.switchedToFull)
    }
    if (switched) {
      // After the switch everything is checked.
      assert(d.state("lo").filter(!ProbData.checkedBy(SSB.Phi.id)).count() == 0)
    }
    // Regardless, the final state matches offline bulk cleaning after
    // a whole-table query covers the rest.
    d.execute(QuerySpec("lo", select = Seq("orderkey", "suppkey")))
    val offline = OfflineCleaner.run(data.dirty, Seq(SSB.Phi))
    assert(canon(d.state("lo"), Seq("orderkey", "suppkey")) ==
      canon(offline.state, Seq("orderkey", "suppkey")))
  }

  test("incremental-only mode (no cost model) never switches") {
    val data = SSB.lineorder(spark, 500, 20, 5)
    val d = Daisy.single(spark, "lo", data.dirty, Seq(SSB.Phi),
      DaisyOptions(useCostModel = false))
    for (i <- 0 until 5)
      d.execute(QuerySpec("lo", where = Seq(Pred("orderkey", "=", s"o_$i")),
        select = Seq("orderkey", "suppkey")))
    assert(!d.lastReport.perRule.exists(_.switchedToFull))
  }

  test("addRule: a later rule merges over provenance without recomputation (Table 7)") {
    // zip→city cleaned first; then a second rule name→zip arrives.
    val df = spark.createDataFrame(Seq(
      (0L, "9001", "LA", "hospA"), (1L, "9001", "SF", "hospA"),
      (2L, "10001", "NY", "hospB"), (3L, "10002", "NY", "hospB")))
      .toDF("__tid", "zip", "city", "name")
    val phi2 = Fd("phi2", "name", "zip")
    val d = Daisy.single(spark, "h", df, Seq(fd))
    d.execute(QuerySpec("h", select = Seq("zip", "city")))
    val cityBefore = TestData.candsOf(d.state("h"), "city")
    d.addRule("h", phi2)
    d.execute(QuerySpec("h", select = Seq("zip", "city", "name")))
    // φ1 fixes survive; φ2 adds zip candidates for the name groups.
    assert(TestData.candsOf(d.state("h"), "city") == cityBefore)
    val zip = TestData.candsOf(d.state("h"), "zip")
    assert(zip(2L).map(c => (c._1, c._2)) == Seq(("10001", "="), ("10002", "=")))
  }

  test("a cleaned state renders candidates for every rule attribute") {
    val d = freshDaisy()
    d.execute(QuerySpec("cities", select = Seq("zip", "city")))
    val row0 = d.state("cities").filter(col("__tid") === 0L)
      .select(TestData.candsToString("zip"), TestData.candsToString("city")).collect().head
    assert(row0.getString(0) == "9001")
    assert(row0.getString(1) == "Los Angeles@0.67|San Francisco@0.33")
  }

  test("a whole-dataset query cleans everything in one shot") {
    val d = freshDaisy()
    d.execute(QuerySpec("cities", select = Seq("zip", "city")))
    assert(d.state("cities").filter(!ProbData.checkedBy(fd.id)).count() == 0)
    val offline = OfflineCleaner.run(TestData.cities(spark), Seq(fd))
    assert(canon(d.state("cities"), Seq("zip", "city")) ==
      canon(offline.state, Seq("zip", "city")))
  }

  test("a null rhs in a dirty group is one of the group's candidates") {
    val expected = Seq[(String, String, Double)]((null, "=", 0.33), ("a", "=", 0.33), ("b", "=", 0.33))
    val d = Daisy.single(spark, "t", TestData.nullCities(spark), Seq(fd))
    d.execute(QuerySpec("t", select = Seq("zip", "city")))
    val offline = OfflineCleaner.run(TestData.nullCities(spark), Seq(fd))
    for (st <- Seq(d.state("t"), offline.state)) {
      val city = TestData.candsOf(st, "city")
      assert((0L to 2L).map(city) == Seq.fill(3)(expected) && city(3L).isEmpty)
    }
  }

  test("an attribute constrained by two inequality DCs is rejected") {
    val dc2 = InequalityDc("other", Seq(Atom("salary", ">"), Atom("tax", "<")))
    assertThrows[IllegalArgumentException] {
      Daisy.single(spark, "sal", TestData.salaries(spark),
        Seq(TestData.salaryDc, dc2))
    }
  }

  test("an FD and an inequality DC on the same attribute are rejected") {
    assertThrows[IllegalArgumentException] {
      Daisy.single(spark, "sal", TestData.salaries(spark),
        Seq(Fd("fd_age_tax", "age", "tax"), TestData.salaryDc))
    }
  }

  test("addRule rejects an inequality DC on an attribute another rule covers") {
    val d = Daisy.single(spark, "sal", TestData.salaries(spark), Seq(Fd("fd_age_sal", "age", "salary")))
    assertThrows[IllegalArgumentException](d.addRule("sal", TestData.salaryDc))
    // The rejected rule is not registered.
    d.execute(QuerySpec("sal", select = Seq("salary", "tax", "age")))
    assert(d.lastReport.perRule.map(_.ruleId) == Seq("fd_age_sal"))
  }

  test("a DC over an empty table or an all-null attribute leaves the table clean") {
    for ((df, n) <- Seq(TestData.emptySalaries(spark) -> 0L, TestData.nullSalaries(spark) -> 2L)) {
      val d = Daisy.single(spark, "sal", df, Seq(TestData.salaryDc))
      val res = d.execute(QuerySpec("sal", where = Seq(Pred("tax", ">=", "0")),
        select = Seq("salary", "tax")))
      assert(res.count() == n)
      val rep = d.lastReport.perRule.head
      assert(rep.dirty == 0 && !rep.switchedToFull && rep.dcDecision.isDefined)
      d.execute(QuerySpec("sal", select = Seq("salary", "tax")))
      val st = d.state("sal")
      assert(st.count() == n)
      assert(st.filter(ProbData.isDirty("salary") || ProbData.isDirty("tax") ||
        ProbData.checkedBy(TestData.salaryDc.id)).count() == 0)
    }
  }

  test("a DC rule's first query counts an answer tuple with a null axis value in Algorithm 2") {
    // Example 5's DC on four tuples in two axis buckets and a tuple
    // without a salary, the matrix axis. The query selects tids 2 and 5
    // by age: tuple 5 has no bucket and no point, yet it is in the
    // answer, so Algorithm 2's qaSize is 2, not 1.
    val df = spark.createDataFrame(Seq((1L, Option(1000.0), 0.4, 31), (2L, Some(1500.0), 0.1, 45),
      (3L, Some(2500.0), 0.3, 33), (4L, Some(3000.0), 0.2, 34), (5L, None, 0.25, 50)))
      .toDF("__tid", "salary", "tax", "age")
    val d = Daisy.single(spark, "sal", df, Seq(TestData.salaryDc),
      DaisyOptions(dcPartitions = 4, dcThreshold = 0.6))
    val res = d.execute(QuerySpec("sal", where = Seq(Pred("age", ">=", "40")),
      select = Seq("salary", "tax")))
    assert(TestData.tids(res) == Seq(2L, 5L))
    val dec = d.lastReport.perRule.head.dcDecision.get
    val checked = TestData.tids(d.state("sal").filter(ProbData.checkedBy(TestData.salaryDc.id)))
    val state = canon(d.state("sal"), Seq("salary", "tax"))
    // The one-collection first use must decide and clean as the former
    // two collections (the bucketization, then the answer's tids) did on
    // these inputs. With qaSize 1 the error share would be 2.25 / 3.25,
    // above the threshold, and the query would clean fully.
    assert(dec.errShare == dec.estErrorsOutside / (2 + dec.estErrorsOutside), s"decision $dec")
    assert(dec == ThetaJoin.Decision(2.2500000000000004, 0.5294117647058825, 0.0, fullCleaning = false))
    assert(checked == Seq(1L, 2L))
    assert(state == Seq("1|1000.0@0.50|>1500.0@0.50|<0.1@0.50|0.4@0.50",
      "2|<1000.0@0.50|1500.0@0.50|0.1@0.50|>0.4@0.50", "3|2500.0|0.3", "4|3000.0|0.2", "5|null|0.25"))
  }
}
