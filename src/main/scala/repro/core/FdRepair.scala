package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.ArrayData
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
  * (lv, rv) pair and its two dirty flags, so each fix is computed once
  * per (lv, rv, dR, dL) and looked up by the signature of each tuple in
  * one rewrite of the state.
  */
object FdRepair {

  /** Computed fixes for a tuple subset: the fix table, which holds for
    * each signature of the subset its (lv, rv, dR, dL) fix (lhs fixes…,
    * rhs fix; null where an attribute gets none) and a true checked mark,
    * keyed by the signature's [[FdGraph.Sig.key]].
    */
  final case class Fixes(
      /** Number of violating (dirty) tuples ε in the subset. */
      nDirty: Long,
      /** Number of violating lhs groups. */
      nDirtyGroups: Long,
      private[core] table: Map[InternalRow, (Seq[ArrayData], Boolean)])

  private def cand(v: String, p: Double, w: String, n: Long): Row = Row(v, "=", p, w, n)

  /** Detects violating lhs groups in the subset and computes the
    * probabilistic fixes for every tuple belonging to one.
    */
  def computeFixes(state: DataFrame, subsetTids: DataFrame, fd: Fd): Fixes =
    fixesOf(FdGraph.collect(state, fd, FdGraph.memberOf(subsetTids)), _.in)

  /** The fixes of the graph's tuples selected by `inSubset`. */
  def fixesOf(g: FdGraph, inSubset: FdGraph.Sig => Boolean): Fixes = {
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
    val fixes = sub.map(s => (s.lv, s.rv, s.dR, s.dL)).distinct.map { case k @ (lv, rv, dR, dL) =>
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
      k -> (lhsParts(fd, fixL) :+ fixR).map(ProbData.toCatalyst)
    }.toMap
    val table = sub.map(s => s.key -> (fixes((s.lv, s.rv, s.dR, s.dL)), true)).toMap

    Fixes(g.count(s => inSubset(s) && rhsCands.contains(s.lv)), rhsCands.size, table)
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
    rewrite(state, fd, FdGraph.sigCols(state, fd, FdGraph.memberOf(subsetTids)), fixes)

  /** The one state rewrite of the FD clean path: each tuple looks its
    * signature, the row of `sigCols`, up in the fix table; a hit merges
    * its fix into the tuple's candidate sets (union semantics of §4.3)
    * and marks it checked.
    */
  private def rewrite(state: DataFrame, fd: Fd, sigCols: Seq[Column], fixes: Fixes): DataFrame =
    ProbData.applyFixTable(state, sigCols, fixes.table, fd.lhs :+ fd.rhs, fd.id)(ProbData.mergeCands)

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
    val fixes = fixesOf(g, s => closure.contains(s) && !s.checked)
    (rewrite(g.state, g.fd, g.sigCols, fixes), closure, fixes)
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
    * marks their tuples checked. A group's tuples are its graph's members,
    * so the rewrite looks them up with the processed groups as members;
    * the groups' signatures differ in their lv. Fixes read base values
    * only, so on those tuples the state equals full cleaning's.
    * `nDirtyGroups` of the returned fixes counts the processed groups.
    */
  def cleanGroups(state: DataFrame, fd: Fd, lvs: IndexedSeq[String], stop: => Boolean): (DataFrame, Fixes) = {
    val parts = mutable.ArrayBuffer[Fixes]()
    while (parts.size < lvs.size && (parts.isEmpty || !stop))
      parts += fixesOf(FdGraph.collect(state, fd, FdGraph.baseLhs(fd) === lvs(parts.size)), _.in)
    val fixes = Fixes(parts.map(_.nDirty).sum, parts.size, parts.flatMap(_.table).toMap)
    (if (parts.isEmpty) state
     else rewrite(state, fd, FdGraph.sigCols(state, fd, FdGraph.baseLhs(fd).isin(lvs.take(parts.size): _*)), fixes),
     fixes)
  }
}
