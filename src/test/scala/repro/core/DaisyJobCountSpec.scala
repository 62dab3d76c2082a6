package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.data.Hospital

/** Spark jobs per `Daisy.execute` on the FD clean path: one signature
  * collection, the broadcast of the fix table, one materialized state
  * rewrite and the result count for a cleaned query; the collection and
  * the count for a pruned one. The bounds keep a return to per-iteration
  * or per-intermediate jobs from passing unnoticed.
  */
class DaisyJobCountSpec extends SparkSpec {

  private def jobsOf[A](f: => A): (A, Int) = {
    val sc = spark.sparkContext
    ListenerBusDrain.drain(sc)
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      val a = f
      ListenerBusDrain.drain(sc)
      (a, jobs.get)
    } finally sc.removeSparkListener(listener)
  }

  test("φ1 on a small hospital table: a cleaned query runs ≤ 5 jobs, a pruned one ≤ 2") {
    val data = Hospital.generate(spark, nHospitals = 40, rowsPer = 4,
      nTie = 4, nMinority = 4, nZipErr = 4)
    val daisy = Daisy.single(spark, "hospital", data.dirty, Seq(Hospital.Phi1))
    val select = Seq("zip", "city", "provider_id")

    val (_, cleaned) = jobsOf(daisy.execute(QuerySpec("hospital",
      where = Seq(Pred("hospital_type", "!=", "type_1")), select = select)))
    val first = daisy.lastReport.perRule.head
    assert(!first.skippedByPruning && first.iterations > 1)
    assert(cleaned <= 5, s"cleaned query ran $cleaned jobs")

    val (_, pruned) = jobsOf(daisy.execute(QuerySpec("hospital",
      where = Seq(Pred("hospital_type", "=", "type_1")), select = select)))
    assert(daisy.lastReport.perRule.head.skippedByPruning)
    assert(pruned <= 2, s"pruned query ran $pruned jobs")
  }
}
