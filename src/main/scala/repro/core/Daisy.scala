package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.core.ProbData.MaterializeOps

/** Configuration of a Daisy session. */
final case class DaisyOptions(
    /** Enable the §5.2.3 cost-model strategy switch (Fig. 7/12). */
    useCostModel: Boolean = true,
    /** Matrix partitions p of the DC theta-join (§4.2). */
    dcPartitions: Int = 64,
    /** Algorithm 2 error-share threshold for the full-cleaning switch. */
    dcThreshold: Double = 0.5,
    /** Max atom-subset size of holistic DC fixes (Example 5). */
    maxFixAtoms: Int = 1,
    /** Transitive-closure bound of Algorithm 1. */
    relaxMaxIter: Int = 20,
    /** Consult the precomputed dirty-group list to skip rules whose
      * dirty values the query cannot touch (§7.1).
      */
    useDirtyGroupPruning: Boolean = true)

/** Per-rule metrics of one executed query. */
final case class RuleReport(table: String, ruleId: String, relaxedExtra: Long,
                            iterations: Int, dirty: Long, skippedByPruning: Boolean,
                            switchedToFull: Boolean,
                            dcDecision: Option[ThetaJoin.Decision])

/** Metrics of one executed query. */
final case class ExecReport(plan: Planner.Plan, resultRows: Long,
                            perRule: Seq[RuleReport])

/** Daisy (§6): a query-driven cleaning session over Spark.
  *
  * Holds the gradually-cleaned probabilistic state of every relation.
  * `execute` runs one query of the workload: it plans the cleaning
  * operators ([[Planner]]), relaxes and repairs the touched subsets
  * ([[CleanOps]], [[FdRepair]], [[ThetaJoin]]/[[DcRepair]]), updates
  * the dataset in place, and returns the (probabilistic) query result.
  * Provenance is the base columns (original values), which lets
  * [[addRule]] merge newly-arriving rules without recomputing earlier
  * work (Table 7).
  */
final class Daisy(val spark: SparkSession,
                  initialTables: Map[String, DataFrame],
                  initialRules: Map[String, Seq[Rule]],
                  val opts: DaisyOptions = DaisyOptions()) {

  private val tidC = ProbData.TidCol

  private val rules = mutable.Map[String, Seq[Rule]]() ++
    initialTables.keys.map(t => t -> initialRules.getOrElse(t, Nil))

  private val states = mutable.Map[String, DataFrame]() ++ initialTables.map {
    case (t, df) => t -> ProbData.init(df, rules(t)).materialized
  }

  // An attribute may be governed by several FDs (§4.3) but by at most
  // one inequality DC (its candidate columns are rebuilt from the
  // accumulated pair set).
  for ((t, rs) <- rules) {
    val dcAttrs = rs.collect { case d: InequalityDc => d.attrs }.flatten
    require(dcAttrs.distinct.size == dcAttrs.size,
      s"table $t: an attribute may appear in at most one inequality DC")
  }

  private val trackers  = mutable.Map[(String, String), CostModel.Tracker]()
  private val dcSeen    = mutable.Map[(String, String), DataFrame]()
  private val dcAccum   = mutable.Map[(String, String), DataFrame]()
  private val dcBuck    = mutable.Map[(String, String), ThetaJoin.Bucketized]()

  /** Metrics of the most recent [[execute]] call. */
  var lastReport: ExecReport = ExecReport(Planner.Plan(QuerySpec("-"), Nil, Nil), 0, Nil)

  def state(table: String): DataFrame = states(table)
  def tableRules(table: String): Seq[Rule] = rules.getOrElse(table, Nil)

  /** Registers a new rule discovered during exploration; it will be
    * evaluated over the original (provenance) values of the table on
    * the next query / [[cleanTableFully]] and merged into the existing
    * probabilistic state (§4.3, Table 7).
    */
  def addRule(table: String, rule: Rule): Unit = {
    rules(table) = rules.getOrElse(table, Nil) :+ rule
    // Extend the state schema with the new rule's candidate sidecars.
    var st = states(table)
    for (a <- rule.attrs if !st.columns.contains(ProbData.candCol(a)))
      st = st.withColumn(a, col(a).cast("string"))
        .withColumn(ProbData.candCol(a), lit(null).cast(ProbData.CandType))
    states(table) = st
  }

  // -------------------------------------------------------------------
  // Query execution
  // -------------------------------------------------------------------

  /** Executes one query of the workload: cleans what it touches,
    * updates the state in place, and returns the probabilistic result
    * (every selected rule attribute is accompanied by its candidate
    * set; join results carry the lineage tids of both sides).
    */
  def execute(q: QuerySpec): DataFrame = {
    val plan = Planner.plan(q, t => rules.getOrElse(t, Nil),
      (t, r) => trackers.get((t, r.id)).exists(_.hasSwitched))
    val reports = mutable.Buffer[RuleReport]()

    // --- left relation: clean_σ per overlapping rule ---------------
    for (step <- plan.steps if !step.isJoinSide)
      reports += runSelectStep(q.table, step, q.where)

    var result = states(q.table).filter(ProbData.qualifiesAll(states(q.table), q.where))

    // --- join: clean_⋈ ---------------------------------------------
    for (j <- q.join) {
      val rightState0 = states(j.rightTable)
      val rightPart = rightState0.filter(ProbData.qualifiesAll(rightState0, j.rightWhere))
      var joined = CleanOps.probEquiJoin(result, rightPart, j.leftKey, j.rightKey)
        .materialized

      val rightQual = joined.select(col("__rtid").as(tidC)).distinct()
      for (step <- plan.steps if step.isJoinSide) {
        val (rep, changedTids) = runJoinSideStep(j.rightTable, step, rightQual)
        reports += rep
        // Incremental join (Fig. 3): only the updated right tuples are
        // re-joined and unioned into the existing result.
        val rightNow = states(j.rightTable)
        val changed = rightNow.join(changedTids, tidC)
        joined = CleanOps.incrementalJoin(joined, result, changed, j.leftKey, j.rightKey)
          .materialized
      }
      result = joined
    }

    // --- aggregation (cleaning already pushed below it) ------------
    if (q.groupBy.nonEmpty || q.aggs.nonEmpty) {
      val aggCols = q.aggs.map { a =>
        val c = col(a.col).cast("double")
        (a.func match {
          case "sum" => sum(c); case "avg" => avg(c); case "min" => min(c)
          case "max" => max(c); case "count" => count(lit(1))
        }).as(a.alias)
      }
      result =
        if (q.groupBy.nonEmpty) result.groupBy(q.groupBy.map(col): _*).agg(aggCols.head, aggCols.tail: _*)
        else result.agg(aggCols.head, aggCols.tail: _*)
    } else if (q.select.nonEmpty) {
      val lineage = result.columns.filter(c => c == "__ltid" || c == "__rtid" || c == tidC)
      val withCands = q.select.flatMap { s =>
        Seq(s) ++ (if (result.columns.contains(ProbData.candCol(s))) Seq(ProbData.candCol(s)) else Nil)
      }
      result = result.select((lineage ++ withCands).distinct.map(col): _*)
    }

    val rows = result.count()
    lastReport = ExecReport(plan, rows, reports.toSeq)
    result
  }

  /** Runs one left-side cleaning step; returns its report. */
  private def runSelectStep(table: String, step: Planner.CleaningStep,
                            where: Seq[Pred]): RuleReport = step.rule match {
    case fd: Fd if step.placement == Planner.BeforeFilter => fullCleanReport(table, fd)
    case fd: Fd => cleanSelectFd(table, fd, ProbData.qualifiesAll(states(table), where), where)
    case dc: InequalityDc =>
      val st = states(table)
      cleanSelectDc(table, dc, st.filter(ProbData.qualifiesAll(st, where)).select(tidC))
  }

  /** Runs one right-side cleaning step; returns its report and the tids
    * of the right tuples with a probabilistic rule attribute.
    */
  private def runJoinSideStep(table: String, step: Planner.CleaningStep,
                              qualTids: DataFrame): (RuleReport, DataFrame) = {
    val rep = step.rule match {
      case fd: Fd if step.placement == Planner.BeforeFilter => fullCleanReport(table, fd)
      case fd: Fd => cleanSelectFd(table, fd, FdGraph.memberOf(qualTids))
      case dc: InequalityDc => cleanSelectDc(table, dc, qualTids)
    }
    val changed = states(table).filter(step.rule.attrs.map(ProbData.isDirty).reduce(_ || _))
      .select(tidC).materialized
    (rep, changed)
  }

  // -------------------------------------------------------------------
  // FD path
  // -------------------------------------------------------------------

  /** `clean_σ` of `fd` over the tuples satisfying `answer`, from one
    * collection of the rule's value graph: the rule's statistics on its
    * first use, dirty-group pruning, relaxation and repair all run on
    * the driver, followed by one rewrite of the state.
    */
  private def cleanSelectFd(table: String, fd: Fd, answer: Column,
                            where: Seq[Pred] = Nil): RuleReport = {
    val g = FdGraph.collect(states(table), fd, answer)
    val tr = trackers.getOrElseUpdate((table, fd.id), new CostModel.Tracker(CostModel.statsOf(g)))

    // Lemma 1: a query whose rule-attribute filters all restrict the
    // rhs needs a single relaxation iteration; lhs filters need the
    // transitive closure (Example 3).
    val fdPreds = where.filter(p => fd.attrs.contains(p.attr))
    val maxIter =
      if (fdPreds.nonEmpty && fdPreds.forall(_.attr == fd.rhs)) 1
      else opts.relaxMaxIter

    // Dirty-group pruning (§7.1): skip the rule when the answer shares
    // no lhs value with any violating group that is still unchecked.
    if (opts.useDirtyGroupPruning &&
        !g.sigs.exists(s => s.in && !s.checked && s.lvs.exists(tr.stats.dirtyLhs))) {
      tr.register(0, 0, 0)
      return RuleReport(table, fd.id, 0, 0, 0, skippedByPruning = true,
        switchedToFull = false, None)
    }

    val out = CleanOps.cleanSelectFd(g, maxIter)
    states(table) = out.state
    tr.register(g.count(_.in), out.relaxed.extraCount, out.fixes.nDirty)

    var switched = false
    if (opts.useCostModel && tr.shouldSwitchToFull) {
      fullCleanRemaining(table, fd)
      switched = true
    }
    RuleReport(table, fd.id, out.relaxed.extraCount, out.relaxed.iterations,
      out.fixes.nDirty, skippedByPruning = false, switched, None)
  }

  /** The report of a step the planner placed before its operator. */
  private def fullCleanReport(table: String, fd: Fd): RuleReport =
    RuleReport(table, fd.id, 0, 0, fullCleanRemaining(table, fd), skippedByPruning = false,
      switchedToFull = true, None)

  /** Cleans every tuple not yet checked by `fd` in one pass and marks
    * the rule as fully applied (the BeforeFilter / strategy-switch
    * path). Returns the number of repaired tuples.
    */
  def fullCleanRemaining(table: String, fd: Fd): Long = {
    val (st, fixes) = FdRepair.clean(states(table), fd, !ProbData.checkedBy(fd.id))
    states(table) = st
    trackers.get((table, fd.id)).foreach(_.markSwitched())
    fixes.nDirty
  }

  // -------------------------------------------------------------------
  // DC path (§4.2)
  // -------------------------------------------------------------------

  private def cleanSelectDc(table: String, dc: InequalityDc,
                            answerTids: DataFrame): RuleReport = {
    val key = (table, dc.id)
    val st = states(table)
    val buck = dcBuck.getOrElseUpdate(key, {
      val b = ThetaJoin.bucketize(st, dc, opts.dcPartitions)
      b.copy(data = b.data.materialized)
    })
    val seen = dcSeen.getOrElse(key, spark.emptyDataFrame.withColumn(tidC, lit(0L)).limit(0)
      .select(col(tidC)))
    val answer = answerTids.select(col(answerTids.columns.head).as(tidC)).distinct()
    val newTids = answer.except(seen).materialized

    // The incremental matrix subset: pairs with at least one endpoint
    // in the newly-accessed result part (never seen × seen again).
    val flagged = buck.data.join(newTids.withColumn("__new", lit(true)), Seq(tidC), "left")
      .withColumn("__seen", col("__new").isNull).drop("__new")
    val pairs = ThetaJoin.candidatePairs(dc, buck.stats)
    val newVios = ThetaJoin.violations(flagged, dc, pairs, buck.stats)

    val accum0 = dcAccum.get(key)
    var accum = accum0.map(_.unionByName(newVios).dropDuplicates(tidC + "1", tidC + "2"))
      .getOrElse(newVios).materialized

    var seenNow = seen.union(newTids).distinct().materialized

    // Algorithm 2: estimate the error share outside the checked region
    // and fall back to full cleaning when the predicted accuracy is low.
    val checked = checkedBucketPairs(buck, seenNow, pairs)
    val resultBuckets = buck.data.join(answer, tidC).select("__b").distinct()
      .collect().map(_.getInt(0)).toSet
    val decision = ThetaJoin.decide(dc, buck.stats, resultBuckets, checked,
      answer.count(), opts.dcThreshold)
    if (decision.fullCleaning) {
      val allNew = buck.data.withColumn("__seen", lit(false))
      accum = ThetaJoin.violations(allNew, dc, pairs, buck.stats).materialized
      seenNow = states(table).select(tidC).materialized
    }

    val fixes = DcRepair.fixes(accum, dc, opts.maxFixAtoms).materialized
    val touched = accum.select(col(tidC + "1").as(tidC))
      .union(accum.select(col(tidC + "2").as(tidC))).distinct()
    states(table) = DcRepair.applyFixesOverwrite(states(table), fixes, touched, dc)
      .materialized

    dcAccum(key) = accum
    dcSeen(key) = seenNow
    RuleReport(table, dc.id, 0, 1, touched.count(), skippedByPruning = false,
      decision.fullCleaning, Some(decision))
  }

  /** Bucket pairs fully compared so far: a pair is done when every
    * tuple of one of its buckets has been part of some query result.
    */
  private def checkedBucketPairs(buck: ThetaJoin.Bucketized, seen: DataFrame,
                                 pairs: Seq[(Int, Int)]): Set[(Int, Int)] = {
    val seenPer = buck.data.join(seen, tidC).groupBy("__b").count()
      .collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val fullBuckets = buck.stats.filter(s => seenPer.getOrElse(s.idx, 0L) >= s.count)
      .map(_.idx).toSet
    pairs.filter { case (i, j) => fullBuckets.contains(i) || fullBuckets.contains(j) }.toSet
  }

  // -------------------------------------------------------------------
  // Whole-table cleaning (used by the Table 6/7 whole-dataset workloads)
  // -------------------------------------------------------------------

  /** Applies every registered rule of `table` to its remaining dirty
    * part — the degenerate query that accesses the whole dataset.
    */
  def cleanTableFully(table: String): Unit = {
    for (r <- rules.getOrElse(table, Nil)) r match {
      case fd: Fd => fullCleanRemaining(table, fd)
      case dc: InequalityDc =>
        val all = states(table).select(tidC)
        cleanSelectDc(table, dc, all)
    }
  }

  /** The probabilistic dataset in exportable form: every rule attribute
    * rendered with its candidate values and probabilities.
    */
  def probabilisticView(table: String): DataFrame = {
    val st = states(table)
    val ruleAttrs = rules.getOrElse(table, Nil).flatMap(_.attrs).distinct
    ruleAttrs.foldLeft(st) { (df, a) =>
      df.withColumn(a + "__view", ProbData.candsToString(a))
    }
  }
}

object Daisy {
  /** Session over one table. */
  def single(spark: SparkSession, table: String, df: DataFrame, rs: Seq[Rule],
             opts: DaisyOptions = DaisyOptions()): Daisy =
    new Daisy(spark, Map(table -> df), Map(table -> rs), opts)
}
