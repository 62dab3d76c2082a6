package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.ProbData.MaterializeOps
import scala.collection.mutable

/** Per-layer timing from outside the program: after each traced query,
  * the benchmark repeats the query's cleaning steps as direct calls into
  * each layer's public functions on the `daisy.state(t)` snapshot taken
  * before the query, timing each call and counting its Spark work under
  * its own tracer scope. Steps that dirty-group pruning skipped are not
  * repeated.
  */
final class LayerProbes(tracer: StageTracer, opts: DaisyOptions) {
  import LayerProbes._

  private val tidC = ProbData.TidCol
  private val seconds = mutable.Map[String, Double]().withDefaultValue(0.0)
  private val counts = mutable.Map[String, Double]().withDefaultValue(0.0)
  private val statsDone = mutable.Set[(String, String)]()

  /** Time in the probe calls so far. */
  def totalSeconds: Double = seconds.values.sum
  def secondsOf(key: String): Double = seconds(key)
  def count(key: String): Double = counts(key)
  def stagesOf(key: String): Long = tracer.summary(ProbeScope + key).stages

  private def timed[A](key: String)(f: => A): A = {
    tracer.scope(ProbeScope + key)
    val t0 = System.nanoTime()
    val a = f
    seconds(key) += (System.nanoTime() - t0) / 1e9
    tracer.scope(ProbeScope + "glue")
    a
  }

  private def tids(df: DataFrame): DataFrame = df.select(col(df.columns.head).as(tidC)).distinct()

  def probe(snapshot: Map[String, DataFrame], report: ExecReport): Unit = {
    val q = report.plan.query
    val steps = report.plan.steps.zip(report.perRule)
    // Daisy computes a rule's statistics on its first use, pruned or not.
    for ((step, _) <- steps) step.rule match {
      case fd: Fd if statsDone.add(step.table -> fd.id) =>
        timed(FdStats)(CostModel.fdStats(snapshot(step.table), fd))
      case _ =>
    }
    for ((step, rep) <- steps if !step.isJoinSide && !rep.skippedByPruning) {
      val st = snapshot(q.table)
      cleanStep(step, rep, st, st.filter(ProbData.qualifiesAll(st, q.where)).select(tidC), q.where)
    }
    for (j <- q.join) {
      val left0 = snapshot(q.table)
      val left = left0.filter(ProbData.qualifiesAll(left0, q.where))
      val right0 = snapshot(j.rightTable)
      val right = right0.filter(ProbData.qualifiesAll(right0, j.rightWhere))
      val joined = timed(Join)(CleanOps.probEquiJoin(left, right, j.leftKey, j.rightKey).materialized)
      counts("join_pairs") += joined.count()
      val rightQual = joined.select(col("__rtid").as(tidC)).distinct()
      for ((step, rep) <- steps if step.isJoinSide) {
        if (!rep.skippedByPruning) cleanStep(step, rep, right0, rightQual, Nil)
        val changed = right0.filter(step.rule.attrs.map(ProbData.isDirty).reduce(_ || _))
        timed(Join)(CleanOps.incrementalJoin(joined, left, changed, j.leftKey, j.rightKey).materialized)
      }
    }
  }

  private def cleanStep(step: Planner.CleaningStep, rep: RuleReport, st: DataFrame,
                        answer: DataFrame, where: Seq[Pred]): Unit = step.rule match {
    case fd: Fd =>
      val unchecked = st.filter(!ProbData.checkedBy(fd.id)).select(tidC)
      val subset =
        if (step.placement == Planner.BeforeFilter) unchecked.materialized
        else {
          // Lemma 1, as Daisy applies it: rhs-only filters need one iteration.
          val fdPreds = where.filter(p => fd.attrs.contains(p.attr))
          val maxIter = if (fdPreds.nonEmpty && fdPreds.forall(_.attr == fd.rhs)) 1 else opts.relaxMaxIter
          val relaxed = timed(Relax)(Relaxation.relax(st, tids(answer), fd, maxIter))
          counts("relax_answer") += tids(answer).count()
          counts("relax_extra") += relaxed.extraCount
          unchecked.join(relaxed.tids, tidC).materialized
        }
      val fixes = timed(FdCompute)(FdRepair.computeFixes(st, subset, fd))
      counts("fd_examined") += subset.count()
      counts("fd_dirty") += fixes.nDirty
      timed(FdApply)(FdRepair.applyFixes(st, fixes, subset, fd).materialized)

    case dc: InequalityDc =>
      val buck = timed(Bucketize) {
        val b = ThetaJoin.bucketize(st, dc, opts.dcPartitions)
        b.copy(data = b.data.materialized)
      }
      val pairs = ThetaJoin.candidatePairs(dc, buck.stats)
      val nr = buck.stats.size.toLong
      counts("pair_prune") += 1.0 - pairs.size.toDouble / math.max(1L, nr * (nr + 1) / 2)
      counts("dc_steps") += 1
      // Daisy checks the whole table once Algorithm 2 switches to full
      // cleaning, otherwise the answer against the rest.
      val flagged =
        if (rep.switchedToFull) buck.data.withColumn("__seen", lit(false))
        else buck.data.join(tids(answer).withColumn("__new", lit(true)), Seq(tidC), "left")
          .withColumn("__seen", col("__new").isNull).drop("__new")
      val vios = timed(Violations)(ThetaJoin.violations(flagged, dc, pairs, buck.stats).materialized)
      counts("violating_pairs") += vios.count()
      val fixes = timed(DcFixes)(DcRepair.fixes(vios, dc, opts.maxFixAtoms).materialized)
      val touched = vios.select(col(tidC + "1").as(tidC))
        .union(vios.select(col(tidC + "2").as(tidC))).distinct().materialized
      counts("touched") += touched.count()
      timed(DcApply)(DcRepair.applyFixesOverwrite(st, fixes, touched, dc).materialized)
  }
}

object LayerProbes {
  val ProbeScope = "probe:"
  val FdStats = "costmodel.fdstats"
  val Relax = "relaxation"
  val FdCompute = "fdrepair.compute"
  val FdApply = "fdrepair.apply"
  val Bucketize = "thetajoin.bucketize"
  val Violations = "thetajoin.violations"
  val DcFixes = "dcrepair.fixes"
  val DcApply = "dcrepair.apply"
  val Join = "cleanops.join"
}
