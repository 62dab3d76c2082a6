package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.ProbData.MaterializeOps

/** Holistic repair of general DC violations (§4.2, Example 5).
  *
  * For every violating pair and every atom, a tuple can resolve the
  * conflict by moving the atom's attribute into the range that inverts
  * the atom's condition (the SAT-formula view of §4.2: a subset of
  * atoms must become false). With k atoms and single-atom (minimal)
  * fixes, each attribute of the tuple keeps its original value in k−1
  * of the k possible fixes and takes the inverted range in one — the
  * 50%/50% split of Example 5 for k = 2. `maxFixAtoms > 1` adds the
  * larger atom subsets ("the pairwise combinations of all three
  * candidate fixes"); probabilities stay frequency-based over the
  * enumerated fix set.
  *
  * Range candidates are stored as (v = bound, op = "<" or ">"); a
  * tuple participating in several violating pairs accumulates
  * candidates which merge by (v, op) with support counts (§4.3).
  */
object DcRepair {

  private val tidC = ProbData.TidCol

  /** Candidate rows (tid, attr, v, op, n) for every tuple of every
    * violating pair found by [[ThetaJoin.violations]].
    */
  def candidateRows(violations: DataFrame, dc: InequalityDc, maxFixAtoms: Int = 1): DataFrame = {
    val k = dc.atoms.size
    val subsets = (1 to math.min(maxFixAtoms, k)).flatMap(sz =>
      dc.atoms.indices.combinations(sz).map(_.toSet))
    val nFixes = subsets.size

    // For each tuple side and each attribute: how many fixes change it
    // vs keep it. With distinct atom attributes, attr of atom i changes
    // in the fixes whose subset contains i.
    val changesPerAtom = dc.atoms.indices.map(i => subsets.count(_.contains(i)))

    val rows = violations.select(
      col(tidC + "1"), col(tidC + "2"), col("dir"),
      array(dc.attrs.map(a => col(a + "1")): _*).as("vals1"),
      array(dc.attrs.map(a => col(a + "2")): _*).as("vals2"))

    // Orientation-expanded: one row per ordered violation.
    val oriented = rows
      .withColumn("__o", explode(
        when(col("dir") === "both", array(lit("12"), lit("21")))
          .otherwise(array(col("dir")))))

    // Per atom, per side: emit the original-value candidate and the
    // range candidate with the fix-frequency supports.
    val o12 = col("__o") === "12"
    val (tid1, tid2) = (when(o12, col(tidC + "1")).otherwise(col(tidC + "2")),
      when(o12, col(tidC + "2")).otherwise(col(tidC + "1")))
    val perAtom = dc.atoms.zipWithIndex.flatMap { case (at, i) =>
      val vi = dc.attrs.indexOf(at.attr)
      val (t1, t2) = (when(o12, col("vals1")(vi)).otherwise(col("vals2")(vi)),
        when(o12, col("vals2")(vi)).otherwise(col("vals1")(vi)))
      def cand(tid: Column, v: Column, op: String, n: Int): Column =
        struct(tid.as("tid"), lit(at.attr).as("attr"), v.cast("string").as("v"),
          lit(op).as("op"), lit(n).as("n"))
      val chg = changesPerAtom(i)
      Seq(cand(tid1, t1, "=", nFixes - chg), cand(tid1, t2, at.invertedOpT1, chg),
        cand(tid2, t2, "=", nFixes - chg), cand(tid2, t1, at.invertedOpT2, chg))
    }

    oriented
      .select(explode(array(perAtom: _*)).as("c"))
      .select(col("c.tid").as(tidC), col("c.attr"), col("c.v"), col("c.op"), col("c.n"))
      .filter(col("n") > 0)
  }

  /** Aggregates candidate rows into per-(tid, attr) candidate arrays
    * with frequency probabilities, shaped like [[ProbData.CandType]].
    */
  def fixes(violations: DataFrame, dc: InequalityDc, maxFixAtoms: Int = 1): DataFrame = {
    val cands = candidateRows(violations, dc, maxFixAtoms)
      .groupBy(tidC, "attr", "v", "op").agg(sum("n").as("n"))
    val perCell = cands.groupBy(tidC, "attr").agg(
      sum("n").as("tot"),
      array_sort(collect_list(struct(col("v"), col("op"), col("n")))).as("cs"))
    perCell.select(col(tidC), col("attr"),
      transform(col("cs"), c => struct(
        c.getField("v").as("v"), c.getField("op").as("op"),
        (c.getField("n") / col("tot")).cast("double").as("p"),
        lit("DC").as("w"), c.getField("n").cast("long").as("n"))).as("cands"))
  }

  /** Applies DC fixes to the state: the per-attribute fixes replace the
    * candidate sets of the DC's attributes, and `checkedTids` are marked
    * checked by `dc`, through one broadcast join of the state with a
    * table of one row per fixed or marked tuple. Replacing is exact:
    * callers pass the fixes of every violation pair found so far, so a
    * DC cell without a fix never had a DC candidate, and no other rule
    * writes a DC attribute's candidates ([[Rule.requireExclusiveDcAttrs]]).
    */
  def applyFixesOverwrite(state: DataFrame, fixesDf: DataFrame, checkedTids: DataFrame,
                          dc: InequalityDc): DataFrame = {
    val perAttr = dc.attrs.map(a =>
      first(when(col("attr") === a, col("cands")), ignoreNulls = true).as(ProbData.fixCol(a)))
    val table = fixesDf.groupBy(tidC).agg(perAttr.head, perAttr.tail: _*)
      .join(checkedTids.toDF(tidC).distinct().withColumn("__mark", lit(true)), Seq(tidC), "full_outer")
    ProbData.applyFixTable(state.join(broadcast(table), Seq(tidC), "left"), state.columns.toSeq,
      dc.attrs, dc.id, col("__mark"))((_, fix) => fix)
  }

  /** The DC clean path shared by Daisy and the offline cleaner: repairs
    * every pair of `violations` (from [[ThetaJoin.violations]]) and marks
    * the tuples of those pairs checked by `dc`. Returns the materialized
    * state and the tids of the marked tuples.
    */
  def clean(state: DataFrame, violations: DataFrame, dc: InequalityDc,
            maxFixAtoms: Int = 1): (DataFrame, DataFrame) = {
    val touched = violations.select(col(tidC + "1").as(tidC))
      .union(violations.select(col(tidC + "2").as(tidC))).distinct()
    val fixesDf = fixes(violations, dc, maxFixAtoms)
    (applyFixesOverwrite(state, fixesDf, touched, dc).materialized, touched)
  }
}
