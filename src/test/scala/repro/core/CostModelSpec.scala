package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** §5.2 cost model: statistics, cost formulas, strategy switch. */
class CostModelSpec extends SparkSpec {

  private lazy val state = ProbData.init(TestData.cities(spark), Seq(TestData.cityFd))
  private lazy val stats = CostModel.fdStats(state, TestData.cityFd)

  test("fdStats: group-by precomputation finds the erroneous groups") {
    assert(stats.n == 5)
    assert(stats.dirtyGroups == 2)
    assert(stats.epsilon == 5)
    assert(stats.p == 2.0)
  }

  test("fdStats: the dirty lhs list is the pruning list of §7.1") {
    val lvs = stats.dirtyLhs.toSeq.sorted
    assert(lvs == Seq("10001", "9001"))
  }

  test("fdStats on clean data has no errors") {
    val clean = ProbData.init(
      spark.createDataFrame(Seq((0L, "1", "a"), (1L, "2", "b"))).toDF("__tid", "zip", "city"),
      Seq(TestData.cityFd))
    val s = CostModel.fdStats(clean, TestData.cityFd)
    assert(s.epsilon == 0 && s.dirtyGroups == 0 && s.dirtyLhs.isEmpty)
  }

  test("offline cost grows with the number of queries (the q·n term)") {
    assert(CostModel.offlineCost(stats, 2) > CostModel.offlineCost(stats, 1))
  }

  test("incremental cost of the first query includes the full relaxation scan") {
    val c = CostModel.incrementalQueryCost(stats, 2, 1, 3, 0, 0)
    assert(c >= stats.n) // the n - Σq_j term with no history
  }

  test("relaxation term shrinks as queries accumulate (§5.2.2)") {
    val first = CostModel.incrementalQueryCost(stats, 2, 1, 3, 0, 0)
    val later = CostModel.incrementalQueryCost(stats, 2, 1, 3, 4, 3)
    assert(later < first)
  }

  test("§5.2.3 q = 1 whole-dataset query: incremental ≈ offline (εn ≤ εn)") {
    // One query covering everything: e_1 = 0, q_1 = n.
    val inc = CostModel.incrementalQueryCost(stats, stats.n, 0, stats.epsilon, 0, 0)
    val off = CostModel.offlineCost(stats, 1)
    assert(inc <= off + 1e-9)
  }

  test("tracker accumulates and does not switch on a cheap workload") {
    // After one registered query the switch holds exactly when that
    // query's cost exceeds the offline cost of one query: a cheap query
    // stays below it, one that re-pays the whole update crosses it.
    val switches = Seq((2L, 1L, 3L), (1L, stats.n, stats.epsilon)).map { case (qi, ei, epsi) =>
      val tr = new CostModel.Tracker(stats)
      tr.register(qi, ei, epsi)
      assert(tr.shouldSwitchToFull ==
        (CostModel.incrementalQueryCost(stats, qi, ei, epsi, 0, 0) > CostModel.offlineCost(stats, 1)))
      tr.shouldSwitchToFull
    }
    assert(switches == Seq(false, true))
  }

  test("tracker switches when repeated expensive queries exceed the offline bound") {
    // A pathological workload: every query re-pays relaxation + update
    // over the whole dataset with many errors each time.
    val tr = new CostModel.Tracker(stats)
    var switched = false
    var i = 0
    while (!switched && i < 10000) {
      tr.register(qi = 1, ei = stats.n, epsi = stats.epsilon)
      switched = tr.shouldSwitchToFull
      i += 1
    }
    assert(switched, "tracker never proposed the full-cleaning switch")
    tr.markSwitched()
    assert(tr.hasSwitched && !tr.shouldSwitchToFull)
  }

  test("stats computed over the base values ignore candidate sidecars") {
    val all = state.select(ProbData.TidCol)
    val fixes = FdRepair.computeFixes(state, all, TestData.cityFd)
    val prob = FdRepair.applyFixes(state, fixes, all, TestData.cityFd)
    val s2 = CostModel.fdStats(prob, TestData.cityFd)
    assert(s2.epsilon == stats.epsilon && s2.dirtyGroups == stats.dirtyGroups)
  }
}
