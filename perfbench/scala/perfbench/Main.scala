package perfbench

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.exp.Workloads
import repro.offline.OfflineCleaner
import scala.collection.mutable

/** Entry point of the Daisy session benchmark (see README.md).
  *
  * One run: set up (Spark session, data, `Daisy`) three times; clean
  * the input with [[OfflineCleaner]]; run sessions on fresh `Daisy`
  * instances for `--seconds` (at least one); check the outputs; print
  * the JSON result as the last line. With `--trace 1` a traced session
  * follows the untraced one and the per-layer metrics are printed
  * instead.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  /** One query: `execute` wall time, and that plus the result collection. */
  final case class QueryRun(executeS: Double, totalS: Double, rows: Long, report: ExecReport)

  private def parseArgs(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, sys.error(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1")
  }

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def info(s: String): Unit = println("# " + s)

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val wl = Workload.byName(args.workload)
    new Main(args, wl).run()
    sys.exit(0)
  }

  /** Driver heap in use after forced collections, in MiB. */
  def liveHeapMb(): Double = {
    for (_ <- 1 to 3) { System.gc(); Thread.sleep(100) }
    val rt = Runtime.getRuntime
    (rt.totalMemory - rt.freeMemory) / 1048576.0
  }
}

final class Main(args: Main.Args, wl: Workload) {
  import Main._

  private val runStart = System.nanoTime()
  private def elapsed: Double = (System.nanoTime() - runStart) / 1e9
  private var attempted = 0
  private var failed = 0
  private val checks = mutable.Buffer[(String, Boolean)]()
  private val queries = wl.queries(args.seed)
  private val rowCounts = mutable.Buffer[Seq[Long]]()

  private def check(name: String)(ok: => Boolean): Unit = {
    val res = try ok catch { case e: Exception => info(s"check '$name' threw: $e"); false }
    checks += name -> res
    attempted += 1
    if (!res) failed += 1
  }

  /** Runs the workload's queries on `daisy`, collecting each result
    * before sending the next query. `beforeQuery`/`afterQuery` let the
    * traced session name its scopes and probe the layers.
    */
  private def session(daisy: Daisy, label: String,
                      beforeQuery: Int => Unit = _ => (),
                      afterQuery: (Int, ExecReport) => Unit = (_, _) => ()): Seq[QueryRun] = {
    val runs = mutable.Buffer[QueryRun]()
    var ok = true
    for ((q, i) <- queries.zipWithIndex if ok) {
      attempted += 1
      try {
        beforeQuery(i)
        val t0 = System.nanoTime()
        val df = daisy.execute(q)
        val t1 = System.nanoTime()
        val rows = df.collect().length.toLong
        val t2 = System.nanoTime()
        runs += QueryRun((t1 - t0) / 1e9, (t2 - t0) / 1e9, rows, daisy.lastReport)
        afterQuery(i, daisy.lastReport)
      } catch {
        case e: Exception =>
          info(s"$label query ${i + 1} failed: $e")
          failed += 1
          ok = false
      }
    }
    rowCounts += runs.map(_.rows).toSeq
    info(f"$label: ${runs.map(_.totalS).sum}%.3f s, queries " +
      runs.map(r => f"${r.totalS}%.3f").mkString("[", ", ", "]") + " s, rows " +
      runs.map(_.rows).mkString("[", ", ", "]"))
    runs.toSeq
  }

  def run(): Unit = {
    info(s"workload=${wl.name} seed=${args.seed} seconds=${args.seconds} trace=${if (args.trace) 1 else 0}")
    val (spark, sparkS) = timed(Workloads.newSpark("perfbench-" + wl.name))
    info(s"master=${spark.sparkContext.master} cores=${spark.sparkContext.defaultParallelism} " +
      s"shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"adaptive=${spark.conf.get("spark.sql.adaptive.enabled")} " +
      s"autoBroadcastJoinThreshold=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
      s"driver.mem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "-")} " +
      s"maxHeap=${Runtime.getRuntime.maxMemory / 1048576}MiB " +
      s"local.dirs=${sys.env.getOrElse("SPARK_LOCAL_DIRS", "-")} " +
      s"java=${System.getProperty("java.version")} spark=${spark.version}")
    info("queries: " + queries.map(q => q.where.map(p => s"${p.attr}${p.op}${p.value}").mkString("&") +
      q.join.map(j => s" join ${j.rightTable}").getOrElse("")).mkString(" ; "))

    // Set-up, several times: data generation + materialization + Daisy.
    val setups = (1 to 3).map(_ => timed { val in = wl.generate(spark); wl.newDaisy(spark, in); in })
    val in = setups.last._1
    val setupS = sparkS + median(setups.map(_._2))
    info(f"setup: spark $sparkS%.3f s + data/daisy " + setups.map(s => f"${s._2}%.3f").mkString("[", ", ", "]") + " s")

    // The offline run comes first. It compiles the FdRepair, ThetaJoin
    // and DcRepair kernels it shares with Daisy, so the first session
    // pays compile time only for Daisy's own plans; in this order both
    // times vary less from run to run than with the session first. More
    // sessions follow while --seconds lasts.
    val tracer = if (args.trace) Some(new StageTracer(spark.sparkContext)) else None
    tracer.foreach(_.scope("offline"))
    val offline = offlineRun(in)
    val offlineS = offline.map(_._3).sum
    tracer.foreach(_.scope("session"))
    val sessions = mutable.Buffer[Seq[QueryRun]]()
    var daisy: Daisy = null
    val measureStart = elapsed
    do {
      daisy = wl.newDaisy(spark, in)
      sessions += session(daisy, s"session ${sessions.size + 1}")
    } while (!args.trace && elapsed - measureStart < args.seconds && elapsed < 100)
    val heapMb = liveHeapMb()
    tracer.foreach(_.scope("checks"))

    // The traced session follows the untraced one and runs warmer, so
    // trace.overhead_s errs low.
    val traced = tracer.map { t =>
      daisy = wl.newDaisy(spark, in)
      val (runs, layers) = tracedSession(daisy, in, t)
      layers :+ ("trace.overhead_s", runs.map(_.totalS).sum - sessions.head.map(_.totalS).sum, "s")
    }

    for ((t, res, _) <- offline)
      check(s"$t candidate sets equal the offline cleaner's")(
        Workload.sameCandidates(daisy.state(t), res, wl.comparedAttrs(t)))
    for ((name, ok) <- wl.reportChecks(sessions.head.map(_.report))) check(name)(ok)
    check("every session returns the same row counts")(rowCounts.distinct.size == 1)
    // Deterministic, so only the traced run computes it.
    val f1 = if (!args.trace) None
      else try wl.repairF1(daisy, in) catch { case e: Exception => info(s"repair F1 failed: $e"); None }

    val queryS = sessions.flatten.map(_.totalS).toSeq
    val sessionS = median(sessions.map(_.map(_.totalS).sum).toSeq)
    info(s"sessions: ${sessions.size}, queries per session: ${queries.size}, query samples: ${queryS.size}")
    info(f"offline_s / session_s = ${offlineS / sessionS}%.3f (printed, not gated)")
    f1.foreach(v => info(f"repair_f1 (DaisyP vs injected errors) = $v%.4f"))
    for ((name, ok) <- checks) info(s"check ${if (ok) "ok  " else "FAIL"} $name")
    info(f"failed_share = ${failed.toDouble / math.max(1, attempted)}%.4f ($failed of $attempted)")

    val metrics = traced match {
      case Some(layers) =>
        val o = tracer.get.summary("offline")
        layers ++ Seq(("offline.jobs", o.jobs.toDouble, "count"), ("offline.stages", o.stages.toDouble, "count"))
      case None => Seq(
        ("setup_s", setupS, "s"),
        ("session_s", sessionS, "s"),
        ("query_p50_s", if (queryS.isEmpty) 0.0 else median(queryS), "s"),
        ("query_max_s", (0.0 +: queryS).max, "s"),
        ("offline_s", offlineS, "s"),
        ("live_heap_mb", heapMb, "MiB"))
    }
    spark.stop()
    info(f"run took $elapsed%.1f s")
    println(Json.result(failed == 0, attempted, failed, metrics))
  }

  /** [[OfflineCleaner]] Bulk on each offline table: (table, result, seconds). */
  private def offlineRun(in: Inputs): Seq[(String, OfflineCleaner.Result, Double)] =
    wl.offlineTables.map { t =>
      val (res, secs) = timed(OfflineCleaner.run(in.tables(t), in.rules(t), OfflineCleaner.Mode.Bulk))
      (t, res, secs)
    }

  /** A traced session on `daisy`; returns its queries and the
    * per-layer metrics.
    */
  private def tracedSession(daisy: Daisy, in: Inputs,
                            tracer: StageTracer): (Seq[QueryRun], Seq[(String, Double, String)]) = {
    val probes = new LayerProbes(tracer, daisy.opts)
    var snapshot = Map.empty[String, DataFrame]
    val runs = session(daisy, "traced",
      beforeQuery = i => {
        snapshot = in.tables.keys.map(t => t -> daisy.state(t)).toMap
        tracer.scope(s"q$i")
      },
      afterQuery = (i, rep) => {
        tracer.scope("probe")
        probes.probe(snapshot, rep)
      })
    tracer.scope("idle")
    val n = math.max(1, runs.size).toDouble

    val perQuery = runs.indices.map(i => tracer.summary(s"q$i"))
    for ((s, i) <- perQuery.zipWithIndex) {
      val unattributed = s.moduleStages(StageTracer.Unattributed)
      info(f"traced q${i + 1}: execute ${runs(i).executeS}%.3f s, in-job ${s.inJobSeconds}%.3f s, " +
        s"jobs ${s.jobs}, stages ${s.stages}, tasks ${s.tasks}, checkpoints ${s.checkpointJobs}, " +
        f"unattributed stage share ${unattributed.toDouble / math.max(1L, s.stages)}%.3f, by module " +
        s.stagesByModule.toSeq.sortBy(-_._2).map { case (m, c) => s"$m=$c" }.mkString(" "))
    }
    val all = tracer.summary(s => s.startsWith("q"))
    val steps = runs.flatMap(r => r.report.plan.steps.map(_.rule).zip(r.report.perRule))
    val ruleSteps = steps.map(_._2)
    val fdSteps = steps.collect { case (_: Fd, rep) => rep }
    val dcSteps = steps.collect { case (_: InequalityDc, rep) => rep }
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    import LayerProbes._

    val metrics = Seq(
      ("daisy.jobs_per_query", all.jobs / n, "count"),
      ("daisy.stages_per_query", all.stages / n, "count"),
      ("daisy.tasks_per_query", all.tasks / n, "count"),
      ("daisy.in_job_s", all.inJobSeconds / n, "s"),
      ("daisy.driver_s", (runs.map(_.totalS).sum - all.inJobSeconds) / n, "s"),
      ("daisy.pruned_share", ratio(ruleSteps.count(_.skippedByPruning), ruleSteps.size), "ratio"),
      ("probdata.checkpoints_per_query", all.checkpointJobs / n, "count"),
      ("relaxation.s", probes.secondsOf(Relax), "s"),
      ("relaxation.stages", probes.stagesOf(Relax).toDouble, "count"),
      ("relaxation.iterations", (0 +: fdSteps.map(_.iterations)).max.toDouble, "count"),
      ("relaxation.extra_per_answer", ratio(probes.count("relax_extra"), probes.count("relax_answer")), "ratio"),
      ("fdrepair.compute_s", probes.secondsOf(FdCompute), "s"),
      ("fdrepair.compute_stages", probes.stagesOf(FdCompute).toDouble, "count"),
      ("fdrepair.apply_s", probes.secondsOf(FdApply), "s"),
      ("fdrepair.apply_stages", probes.stagesOf(FdApply).toDouble, "count"),
      ("fdrepair.dirty_share", ratio(probes.count("fd_dirty"), probes.count("fd_examined")), "ratio"),
      ("costmodel.fdstats_s", probes.secondsOf(FdStats), "s"),
      ("costmodel.switches", fdSteps.count(_.switchedToFull).toDouble, "count"),
      ("thetajoin.bucketize_s", probes.secondsOf(Bucketize), "s"),
      ("thetajoin.violations_s", probes.secondsOf(Violations), "s"),
      ("thetajoin.stages", (probes.stagesOf(Bucketize) + probes.stagesOf(Violations)).toDouble, "count"),
      ("thetajoin.pair_prune_share", ratio(probes.count("pair_prune"), probes.count("dc_steps")), "ratio"),
      ("thetajoin.violating_pairs", probes.count("violating_pairs"), "count"),
      ("alg2.full_switches", dcSteps.count(_.switchedToFull).toDouble, "count"),
      ("dcrepair.fixes_s", probes.secondsOf(DcFixes), "s"),
      ("dcrepair.apply_s", probes.secondsOf(DcApply), "s"),
      ("dcrepair.touched_tuples", probes.count("touched"), "count"),
      ("cleanops.join_s", probes.secondsOf(Join), "s"),
      ("cleanops.join_stages", probes.stagesOf(Join).toDouble, "count"),
      ("cleanops.join_pairs", probes.count("join_pairs"), "count"),
      ("trace.unattributed_share", ratio(all.moduleStages(StageTracer.Unattributed), all.stages), "ratio"),
      ("trace.probe_s", probes.totalSeconds, "s"),
    )
    (runs, metrics ++ Seq("Daisy", "Relaxation", "FdRepair", "CostModel", "ThetaJoin", "DcRepair", "CleanOps", "ProbData")
      .map(m => (s"callsite.${m.toLowerCase}_stages", all.moduleStages("core." + m) / n, "count")))
  }
}
