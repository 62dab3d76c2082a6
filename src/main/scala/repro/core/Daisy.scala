package repro.core

import org.apache.spark.sql.{Column, DataFrame, ReproCheckpoint, SparkSession}
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
    relaxMaxIter: Int = 20)

/** Daisy (§6): a query-driven cleaning session over Spark.
  *
  * Holds the gradually-cleaned probabilistic state of every relation.
  * `execute` runs one query of the workload: it plans the cleaning
  * operators ([[Planner]]), relaxes and repairs the touched subsets
  * ([[FdRepair]], [[ThetaJoin]]/[[DcRepair]]), updates the dataset in
  * place, joins ([[CleanOps]]) and returns the (probabilistic) query result.
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

  rules.values.foreach(Rule.requireExclusiveDcAttrs)

  private val states = mutable.Map[String, DataFrame]() ++ initialTables.map {
    case (t, df) => t -> ProbData.init(df, rules(t)).materialized
  }

  private val trackers = mutable.Map[(String, String), CostModel.Tracker]()
  private val dcRecords = mutable.Map[(String, String), Daisy.DcRecord]()
  /** (table, FD) pairs whose rule left no unchecked tuple with a candidate
    * lhs value in a dirty group: dirty-group pruning skips every later
    * answer, so their steps collect nothing until another rule rewrites
    * the table.
    */
  private val settled = mutable.Set[(String, String)]()

  /** Metrics of the most recent [[execute]] call. */
  var lastReport: ExecReport = ExecReport(Planner.Plan(QuerySpec("-"), Nil), Nil)

  def state(table: String): DataFrame = states(table)

  /** Registers a new rule discovered during exploration; it will be
    * evaluated over the original (provenance) values of the table on
    * the next query and merged into the existing probabilistic state
    * (§4.3, Table 7).
    */
  def addRule(table: String, rule: Rule): Unit = {
    val rs = rules.getOrElse(table, Nil) :+ rule
    Rule.requireExclusiveDcAttrs(rs)
    rules(table) = rs
    settled.filterInPlace(_._1 != table)
    // Extend the state schema with the new rule's candidate sidecars.
    val st = states(table)
    val fresh = rule.attrs.distinct
      .filter(a => st.columns.contains(a) && !st.columns.contains(ProbData.candCol(a)))
    states(table) = st.select(
      st.columns.toSeq.map(c => if (fresh.contains(c)) col(c).cast("string").as(c) else col(c)) ++
        fresh.map(a => lit(null).cast(ProbData.CandType).as(ProbData.candCol(a))): _*)
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
      reports += runStep(q.table, step, ProbData.qualifiesAll(states(q.table), q.where), q.where)

    var result = states(q.table).filter(ProbData.qualifiesAll(states(q.table), q.where))

    // --- join: clean_⋈ ---------------------------------------------
    for (j <- q.join) {
      // Read from the current state: before the join-side steps for the
      // join, after them for the re-join.
      def rightPart = states(j.rightTable).filter(ProbData.qualifiesAll(states(j.rightTable), j.rightWhere))
      val joined = CleanOps.probEquiJoin(result, rightPart, j.leftKey, j.rightKey)
      // The joined rows' right tuples with their checked marks, collected once.
      lazy val rightChk = ReproCheckpoint.scan(joined, Seq(col("__rtid"), col("__rchk"))).collect()
        .map(r => r.getLong(0) -> ProbData.strings(r.getArray(1))).toMap
      lazy val rightQual = col(tidC).isin(rightChk.keys.toSeq: _*)
      val ran = plan.steps.filter(_.isJoinSide).map(step => step.rule -> runStep(j.rightTable, step, rightQual))
      reports ++= ran.map(_._2)
      // Incremental join (Fig. 3): the qualifying right tuples with a
      // probabilistic attribute of a rule that ran, and the joined ones
      // such a rule newly checked, are re-joined once.
      val rules = ran.collect { case (rule, r) if !r.skippedByPruning => rule }
      def changed = rules.flatMap(_.attrs).distinct.map(ProbData.isDirty) ++ rules.map { rule =>
        val unmarked = rightChk.collect { case (t, chk) if !chk.contains(rule.id) => t }
        ProbData.checkedBy(rule.id) && col(tidC).isin(unmarked.toSeq: _*)
      }
      result =
        if (rules.isEmpty) joined
        else CleanOps.incrementalJoin(joined, result, rightPart.filter(changed.reduce(_ || _)),
          j.leftKey, j.rightKey)
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
    } else {
      // The answer: a frame over the scanned rows, which runs no job until read.
      val lineage = result.columns.filter(c => c == "__ltid" || c == "__rtid" || c == tidC)
      val withCands = q.select.flatMap { s =>
        Seq(s) ++ (if (result.columns.contains(ProbData.candCol(s))) Seq(ProbData.candCol(s)) else Nil)
      }
      val cols = if (q.select.isEmpty) result.columns.toSeq else (lineage ++ withCands).distinct.toSeq
      result = ReproCheckpoint.scan(result, cols.map(col)).frame
    }

    lastReport = ExecReport(plan, reports.toSeq)
    result
  }

  /** Runs one cleaning step over the tuples satisfying `answer`; returns
    * its report.
    */
  private def runStep(table: String, step: Planner.CleaningStep, answer: Column,
                      where: Seq[Pred] = Nil): RuleReport = step.rule match {
    // A rule is placed BeforeFilter once its tracker has switched, which
    // only fullCleanRemaining does, after marking every tuple checked by
    // the rule; checked marks are never removed, so nothing is left to clean.
    case fd: Fd if step.placement == Planner.BeforeFilter =>
      RuleReport(table, fd.id, 0, 0, 0, skippedByPruning = false, switchedToFull = true, None)
    case fd: Fd => cleanSelectFd(table, fd, answer, where)
    case dc: InequalityDc => cleanSelectDc(table, dc, answer)
  }

  // -------------------------------------------------------------------
  // FD path
  // -------------------------------------------------------------------

  /** `clean_σ` of `fd` over the tuples satisfying `answer`, from one
    * collection of the rule's value graph: the rule's statistics on its
    * first use, dirty-group pruning, relaxation and repair all run on
    * the driver, followed by one rewrite of the state. A settled rule is
    * pruned without the collection.
    */
  private def cleanSelectFd(table: String, fd: Fd, answer: Column,
                            where: Seq[Pred] = Nil): RuleReport = {
    def pruned = RuleReport(table, fd.id, 0, 0, 0, skippedByPruning = true, switchedToFull = false, None)
    if (settled((table, fd.id))) {
      trackers((table, fd.id)).register(0, 0, 0)
      return pruned
    }
    val g = FdGraph.collect(states(table), fd, answer)
    val tr = trackers.getOrElseUpdate((table, fd.id), new CostModel.Tracker(CostModel.statsOf(g)))
    // A tuple the rule must still check: unchecked, with a candidate lhs
    // value in a dirty group.
    def open(s: FdGraph.Sig) = !s.checked && s.lvs.exists(tr.stats.dirtyLhs)

    // Lemma 1: a query whose rule-attribute filters all restrict the
    // rhs needs a single relaxation iteration; lhs filters need the
    // transitive closure (Example 3).
    val fdPreds = where.filter(p => fd.attrs.contains(p.attr))
    val maxIter =
      if (fdPreds.nonEmpty && fdPreds.forall(_.attr == fd.rhs)) 1
      else opts.relaxMaxIter

    // Dirty-group pruning (§7.1): skip the rule when the answer shares
    // no lhs value with any violating group that is still unchecked.
    if (!g.sigs.exists(s => s.in && open(s))) {
      tr.register(0, 0, 0)
      if (!g.sigs.exists(open)) settled += ((table, fd.id))
      return pruned
    }

    val (st, closure, fixes) = FdRepair.clean(g, maxIter)
    write(table, fd.id, st)
    // The rewrite changed and checked only the closure's unchecked
    // tuples; the rest keep the signatures of `g`.
    if (!g.sigs.exists(s => open(s) && !closure.contains(s))) settled += ((table, fd.id))
    tr.register(g.count(_.in), closure.extraCount, fixes.nDirty)

    var switched = false
    if (opts.useCostModel && tr.shouldSwitchToFull) {
      fullCleanRemaining(table, fd)
      switched = true
    }
    RuleReport(table, fd.id, closure.extraCount, closure.iterations,
      fixes.nDirty, skippedByPruning = false, switched, None)
  }

  /** Cleans every tuple not yet checked by `fd` in one pass and marks
    * the rule as fully applied (the §5.2.3 strategy switch), after which
    * the planner places it BeforeFilter. Returns the number of repaired
    * tuples.
    */
  def fullCleanRemaining(table: String, fd: Fd): Long = {
    val (st, fixes) = FdRepair.cleanUnchecked(states(table), fd)
    write(table, fd.id, st)
    trackers.get((table, fd.id)).foreach(_.markSwitched())
    fixes.nDirty
  }

  /** Makes `st`, written by the rule `ruleId`, the state of `table`. It
    * may have changed candidates that another rule reads, so no other
    * rule of the table stays settled.
    */
  private def write(table: String, ruleId: String, st: DataFrame): Unit = {
    states(table) = st
    settled.filterInPlace { case (t, r) => t != table || r == ruleId }
  }

  // -------------------------------------------------------------------
  // DC path (§4.2)
  // -------------------------------------------------------------------

  /** `clean_σ` of `dc` over the tuples satisfying `answer` (§4.2). One
    * collection of the answer's tids gives Algorithm 2 its inputs (their
    * buckets come from the rule's points) and the answer's tuples the
    * rule has not seen; on the rule's first use the same collection
    * bucketizes the table. The decision comes first, then one driver-side
    * detection: over the whole matrix when it is full cleaning, else over
    * the pairs with a newly seen tuple.
    */
  private def cleanSelectDc(table: String, dc: InequalityDc, answer: Column): RuleReport = {
    val (rec, answerTids) = dcRecords.get((table, dc.id)) match {
      case Some(r) => (r, ReproCheckpoint.scan(states(table).filter(answer), Seq(col(tidC))).collect()
        .toSeq.map(_.getLong(0)))
      case None =>
        val (b, tids) = ThetaJoin.bucketizeWithAnswer(states(table), dc, opts.dcPartitions, answer)
        (Daisy.DcRecord(b, dc), tids)
    }
    val tuples = answerTids.map(t => (t, rec.buck.bucketOfTid.get(t)))
    val fresh = tuples.collect { case (t, Some(b)) if !rec.seen(t, b) => (t, b) }
    val now = rec.see(fresh)
    val decision = ThetaJoin.decide(dc, rec.buck.stats, tuples.flatMap(_._2).toSet,
      now.checkedPairs, tuples.length, opts.dcThreshold)
    val after =
      if (decision.fullCleaning) cleanDc(table, dc, now.complete, _ => false)
      else if (fresh.isEmpty) now
      else { val f = fresh.map(_._1).toSet; cleanDc(table, dc, now, t => !f(t)) }
    dcRecords((table, dc.id)) = after
    RuleReport(table, dc.id, 0, 1, after.touched, skippedByPruning = false,
      decision.fullCleaning, Some(decision))
  }

  /** Detects the violations among the pairs of `rec`'s matrix whose
    * tuples are not both `seen` (all of them when nothing is seen), adds
    * them to the pairs found so far and, when that adds a pair, repairs
    * the state from the result. The state is a function of the pairs
    * found so far, so without a new pair it stays as it is.
    */
  private def cleanDc(table: String, dc: InequalityDc, rec: Daisy.DcRecord,
                      seen: Long => Boolean): Daisy.DcRecord = {
    val found = ThetaJoin.violationsOf(rec.buck.points, seen, dc, rec.pairs)
    val vios = found.map(v => (v.tid1, v.tid2) -> v).toMap ++ rec.vios
    if (vios.size == rec.vios.size) rec
    else {
      val (st, touched) = DcRepair.clean(states(table), vios.values, dc, opts.maxFixAtoms)
      write(table, dc.id, st)
      rec.copy(vios = vios, touched = touched)
    }
  }
}

object Daisy {
  /** Daisy's bookkeeping of one inequality DC over one table (§4.2): the
    * bucketization with its points and candidate bucket pairs, the tids
    * the rule has seen in answers with their count per bucket, and the
    * violation pairs found so far, keyed by (tid1, tid2), with the number
    * of tuples they touch. A bucket whose tuples have all been seen is
    * full; every pair of a full bucket has been checked.
    */
  private[core] final case class DcRecord(buck: ThetaJoin.Bucketized, pairs: Seq[(Int, Int)],
                                          seenTids: Set[Long] = Set.empty,
                                          seenPerBucket: Map[Int, Long] = Map.empty,
                                          vios: Map[(Long, Long), ThetaJoin.Violation] = Map.empty,
                                          touched: Long = 0L) {
    private val sizes = buck.stats.map(s => s.idx -> s.count).toMap

    def full(b: Int): Boolean = seenPerBucket.getOrElse(b, 0L) >= sizes(b)
    def seen(tid: Long, b: Int): Boolean = full(b) || seenTids(tid)

    /** The record after the rule has seen the (tid, bucket) pairs `fresh`. */
    def see(fresh: Seq[(Long, Int)]): DcRecord =
      copy(seenTids = seenTids ++ fresh.map(_._1), seenPerBucket = fresh.foldLeft(seenPerBucket) {
        case (m, (_, b)) => m.updated(b, m.getOrElse(b, 0L) + 1L)
      })

    /** The record after every tuple has been seen (full cleaning). */
    def complete: DcRecord = copy(seenPerBucket = sizes)

    /** Bucket pairs fully compared so far: those touching a full bucket. */
    def checkedPairs: Set[(Int, Int)] = pairs.filter { case (i, j) => full(i) || full(j) }.toSet
  }

  private[core] object DcRecord {
    /** The record of `dc` before it has seen a tuple. */
    def apply(buck: ThetaJoin.Bucketized, dc: InequalityDc): DcRecord =
      DcRecord(buck, ThetaJoin.candidatePairs(dc, buck.stats))
  }

  /** Session over one table. */
  def single(spark: SparkSession, table: String, df: DataFrame, rs: Seq[Rule],
             opts: DaisyOptions = DaisyOptions()): Daisy =
    new Daisy(spark, Map(table -> df), Map(table -> rs), opts)
}
