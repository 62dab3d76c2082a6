package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.exp.Table8

/** Reproduces Table 8 (§7.3): realistic exploratory scenarios — Nestle
  * (37 SP queries, 40% coverage) and air quality (52 aggregate
  * queries), Daisy vs offline cleaning with the paper's timeout
  * behaviour ("-" = did not finish).
  */
class Table8RealisticBench extends AnyFunSuite {

  test("Table 8: realistic scenarios") {
    val spark = SparkSpec.shared
    val d = Table8.Sizes()
    val sizes = Table8.Sizes(
      nestleSmall = sys.env.get("BENCH_NESTLE_SMALL").fold(d.nestleSmall)(_.toLong),
      nestleLarge = sys.env.getOrElse("BENCH_NESTLE_LARGE", "300000").toLong,
      airRows = sys.env.getOrElse("BENCH_AIR_ROWS", "120000").toLong,
      offlineTimeoutSec = sys.env.get("BENCH_OFFLINE_TIMEOUT").fold(d.offlineTimeoutSec)(_.toDouble))
    val rows = Table8.run(spark, sizes)
    println("\n" + Table8.report(rows))

    val byDs = rows.map(r => r.dataset -> r).toMap

    // Daisy finishes everywhere.
    assert(rows.forall(_.daisySec > 0))
    // The paper's qualitative outcome: offline per-group cleaning loses
    // on the small Nestle version and collapses (timeout) at scale —
    // both air-quality versions time out ("-" in the paper).
    val ns = byDs("Nestle (small)")
    assert(ns.offlineTimedOut || ns.offlineSec.exists(_ > ns.daisySec),
      "offline should lose on Nestle small")
    assert(byDs("Nestle (large)").offlineTimedOut ||
      byDs("Nestle (large)").offlineSec.exists(_ > byDs("Nestle (large)").daisySec * 2),
      "offline should collapse on Nestle large")
    assert(byDs("Air quality 30%").offlineTimedOut, "air 30% offline should hit the timeout")
    assert(byDs("Air quality 97%").offlineTimedOut, "air 97% offline should hit the timeout")
    // More violations cost Daisy more (49 vs 10.5 minutes in the paper).
    assert(byDs("Air quality 97%").daisySec > byDs("Air quality 30%").daisySec * 0.8)
  }
}
