package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** FD violation detection and probabilistic repair (§4.1).
  *
  * Detection follows the BigDansing optimization the paper's own
  * offline comparator uses: a group-by on the lhs instead of a
  * self-join. Repair assigns each tuple of a violating lhs-group two
  * candidate worlds:
  *
  *  - world "R" (keep lhs): the rhs cell receives the distinct rhs
  *    values of same-lhs tuples with P(rhs | lhs) frequencies,
  *  - world "L" (keep rhs): the lhs cell receives the distinct lhs
  *    values of same-rhs tuples with P(lhs | rhs) frequencies — only
  *    when the tuple's rhs value co-occurs with >1 distinct lhs
  *    (Table 2b: "New York" keeps its clean zip).
  *
  * All statistics are computed over the *base* (original) values of
  * the supplied tuple subset — per §4.3 new rules are always executed
  * over the original data (the provenance Daisy maintains) and merged
  * into existing candidate sets afterwards. They run on the driver over
  * the rule's [[FdGraph]]: a tuple's fix depends only on its base
  * (lv, rv) pair and its two dirty flags, so the fixes are a table
  * keyed by those four values, applied by one rewrite of the state.
  */
object FdRepair {

  /** Computed fixes for a tuple subset: the fix table `keys`, one row
    * (lv, rv, dR, dL, lhs fixes…, rhs fix) per key that receives a fix,
    * for the tuples of the state satisfying `subset`.
    */
  final case class Fixes(
      /** Number of violating (dirty) tuples ε in the subset. */
      nDirty: Long,
      /** Number of violating lhs groups. */
      nDirtyGroups: Long,
      private[core] keys: Seq[Row], private[core] subset: Column)

  private def cand(v: String, p: Double, w: String, n: Long): Row = Row(v, "=", p, w, n)

  /** Detects violating lhs groups in the subset and computes the
    * probabilistic fixes for every tuple belonging to one.
    */
  def computeFixes(state: DataFrame, subsetTids: DataFrame, fd: Fd): Fixes = {
    val g = FdGraph.collect(state, fd, FdGraph.memberOf(subsetTids))
    fixesOf(g, _.in, g.member)
  }

  /** The fixes of the graph's tuples selected by `inSubset`; `subset`
    * is the same selection as a predicate over the graph's state.
    */
  def fixesOf(g: FdGraph, inSubset: FdGraph.Sig => Boolean, subset: Column): Fixes = {
    val fd = g.fd
    val sub = g.sigs.filter(inSubset)

    // rhs candidates per dirty lhs group, P(rhs|lhs) = cnt / Σcnt.
    val byL = g.byLhs(inSubset)
    val tot = byL.map { case (lv, rvs) => lv -> rvs.values.sum }
    val rhsCands = g.dirtyGroups(inSubset).map { case (lv, rvs) =>
      lv -> rvs.toSeq.sortBy(c => Option(c._1)).map { case (rv, n) => cand(rv, n.toDouble / tot(lv), "R", n) }
    }

    // P(lhs | rhs) statistics come from *every* tuple sharing an rhs
    // value with the subset, even outside the relaxed result — Table 2b
    // computes P(Zip | City=SF) = {9001 50%, 10001 50%} using the
    // (10001, SF) tuple that the one-iteration relaxation of Example 2
    // does not return. Those context tuples contribute statistics only;
    // they are neither repaired nor marked checked here.
    val rvs = sub.map(_.rv).filter(_ != null).toSet
    val ctx = FdGraph.pairCounts(g.sigs.filter(s => rvs(s.rv)))
    val lhsCands = ctx.groupBy(_._1._2).collect { case (rv, ps) if ps.size > 1 =>
      val t = ps.values.sum
      rv -> ps.toSeq.sortBy(_._1._1).map { case ((lv, _), n) => cand(lv, n.toDouble / t, "L", n) }
    }

    // Confirmations (§4.3): a rule also contributes its conditional
    // distribution to cells that *other* rules already made
    // probabilistic, even when its own group is consistent —
    // P(zip | name) = {z, 100%} from a clean name-group merges into a
    // speculative candidate set from zip → city and re-weights the
    // original value ("the probability of each fix must combine the
    // probabilities that stem from all the rules affecting the cell").
    val keys = sub.map(s => (s.lv, s.rv, s.dR, s.dL)).distinct
    val rows = keys.flatMap { case (lv, rv, dR, dL) =>
      val dirty = rhsCands.contains(lv)
      val multi = rv != null && lhsCands.contains(rv)
      val fixR =
        if (dirty) rhsCands(lv)
        else if (dR) Seq(cand(rv, 1.0, "R", tot(lv)))
        else null
      val fixL =
        if (dirty && multi) lhsCands(rv)
        else if (dL && rv != null && !multi) Seq(cand(lv, 1.0, "L", ctx((lv, rv))))
        else null
      if (fixR == null && fixL == null) None
      else Some(Row.fromSeq(Seq(lv, rv, dR, dL) ++ lhsParts(fd, fixL) :+ fixR))
    }

    Fixes(g.count(s => inSubset(s) && rhsCands.contains(s.lv)), rhsCands.size, rows, subset)
  }

  /** Splits concatenated lhs candidates into per-attribute candidate
    * sets. For a single-attribute lhs this is exact; for multi-attr
    * lhs the per-attribute marginals lose cross-attribute correlation
    * (candidate combinations), which only the multi-attr air-quality
    * rule exercises — its repairs are rhs-side.
    */
  private def lhsParts(fd: Fd, fixL: Seq[Row]): Seq[Seq[Row]] =
    if (fixL == null) fd.lhs.map(_ => null)
    else if (fd.lhs.size == 1) Seq(fixL)
    else fd.lhs.indices.map { i =>
      ProbData.mergeCandSeqs(fixL.map(c =>
        Row(c.getString(0).split(Relaxation.Sep, -1).lift(i).orNull, c.getString(1),
          c.getDouble(2), c.getString(3), c.getLong(4))), null)
    }

  /** Applies `fixes` to the state: merges new candidate sets into the
    * sidecar columns (union semantics of §4.3) and marks every tuple
    * of `subsetTids` as checked by `fd`. Base columns are untouched —
    * they are the provenance to the original values.
    */
  def applyFixes(state: DataFrame, fixes: Fixes, subsetTids: DataFrame, fd: Fd): DataFrame =
    rewrite(state, fd, fixes, FdGraph.memberOf(subsetTids))

  /** A tuple's fix-table key: its (lv, rv, dR, dL) as a struct. */
  private[core] def fixKey(state: DataFrame, fd: Fd): Column =
    struct(FdGraph.baseLhs(fd), FdGraph.baseRhs(fd), FdGraph.dirtyFlag(state, fd.rhs),
      FdGraph.dirtyLhsFlag(state, fd))

  /** The one state rewrite of the FD clean path: the fixes of the
    * fixed subset, looked up by each tuple's (lv, rv, dR, dL) key, merge
    * into its candidate sets (union semantics of §4.3), and the tuples
    * satisfying `mark` become checked by `fd`.
    */
  def rewrite(state: DataFrame, fd: Fd, fixes: Fixes, mark: Column): DataFrame = {
    val table: Map[Any, Seq[Seq[Row]]] = fixes.keys.map(r => Row(r(0), r(1), r(2), r(3)) -> r.toSeq.drop(4)
      .map(_.asInstanceOf[Seq[Row]])).toMap
    ProbData.applyFixTable(state, when(fixes.subset, fixKey(state, fd)), table, fd.lhs :+ fd.rhs, fd.id,
      mark)(ProbData.mergeCands)
  }

  /** The one FD clean step (§4.1): relaxes the graph's members with
    * Algorithm 1 bounded by `maxIter`, detects and repairs the relaxed
    * tuples the rule has not checked yet, and marks them checked, with
    * one rewrite of the graph's state, checkpointed lazily: the next
    * action that reads the state stores it. Tuples already
    * checked by the rule are left out of the repair statistics: their
    * candidate sets already reflect it. With `maxIter = 0` the closure
    * is the members alone ([[cleanUnchecked]]).
    */
  def clean(g: FdGraph, maxIter: Int): (DataFrame, Relaxation.Closure, Fixes) = {
    val closure = Relaxation.closure(g, maxIter)
    val subset = closure.member(g) && !ProbData.checkedBy(g.fd.id)
    val fixes = fixesOf(g, s => closure.contains(s) && !s.checked, subset)
    (rewrite(g.state, g.fd, fixes, subset), closure, fixes)
  }

  /** [[clean]] of every tuple of `state` that `fd` has not checked,
    * unrelaxed, from one collection of the rule's graph: full cleaning's
    * step, in Daisy's strategy switch and the offline cleaner.
    */
  def cleanUnchecked(state: DataFrame, fd: Fd): (DataFrame, Fixes) = {
    val (st, _, fixes) = clean(FdGraph.collect(state, fd, !ProbData.checkedBy(fd.id)), 0)
    (st, fixes)
  }

  /** The per-group form of [[clean]] (§5.2.1's pass per erroneous
    * group): one signature collection and driver-side fixes for each
    * lhs value of `lvs` until `stop` holds after a group, then one
    * lazily checkpointed rewrite that merges the processed groups' fixes and
    * marks their tuples checked. Fixes read base values only, so on
    * those tuples the state equals full cleaning's. `nDirtyGroups` of the
    * returned fixes counts the processed groups.
    */
  def cleanGroups(state: DataFrame, fd: Fd, lvs: IndexedSeq[String], stop: => Boolean): (DataFrame, Fixes) = {
    val parts = mutable.ArrayBuffer[Fixes]()
    while (parts.size < lvs.size && (parts.isEmpty || !stop)) {
      val g = FdGraph.collect(state, fd, FdGraph.baseLhs(fd) === lvs(parts.size))
      parts += fixesOf(g, _.in, g.member)
    }
    val subset = FdGraph.baseLhs(fd).isin(lvs.take(parts.size): _*)
    val fixes = Fixes(parts.map(_.nDirty).sum, parts.size, parts.flatMap(_.keys).toSeq, subset)
    (if (parts.isEmpty) state else rewrite(state, fd, fixes, subset), fixes)
  }
}
