package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{BoundReference, Cast}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

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

  /** Renders a double as Spark's `cast(double as string)` does: one
    * interpreted cast expression, evaluated per value.
    */
  private def doubleToString(): Double => String = {
    val cast = Cast(BoundReference(0, DoubleType, nullable = false), StringType)
    d => cast.eval(InternalRow(d)).toString
  }

  /** The fixes of `violations` on the driver: per tid, per DC attribute,
    * the candidate set shaped like [[ProbData.CandType]] — every
    * (v, op) candidate of the tuple's violation pairs with its summed
    * support n, p = n/Σn, sorted by (v, op).
    */
  def fixesOf(violations: Iterable[ThetaJoin.Violation], dc: InequalityDc,
              maxFixAtoms: Int = 1): Map[Long, Map[String, Seq[Row]]] = {
    val subsets = (1 to math.min(maxFixAtoms, dc.atoms.size)).flatMap(sz =>
      dc.atoms.indices.combinations(sz).map(_.toSet))
    val nFixes = subsets.size
    // For each tuple side and each attribute: how many fixes change it
    // vs keep it. With distinct atom attributes, attr of atom i changes
    // in the fixes whose subset contains i.
    val perAtom = dc.atoms.indices.map(i => (dc.atoms(i), dc.attrs.indexOf(dc.atoms(i).attr),
      subsets.count(_.contains(i))))
    val render = doubleToString()

    val support = mutable.HashMap[(Long, String, String, String), Long]().withDefaultValue(0L)
    def cand(tid: Long, attr: String, v: Double, op: String, n: Int): Unit =
      if (n > 0) support((tid, attr, render(v), op)) += n
    // One ordered violation (t1, t2) per violating orientation.
    def oriented(v: ThetaJoin.Violation) = {
      val (o12, o21) = ((v.tid1, v.vals1, v.tid2, v.vals2), (v.tid2, v.vals2, v.tid1, v.vals1))
      v.dir match { case "both" => Seq(o12, o21); case "12" => Seq(o12); case _ => Seq(o21) }
    }
    // Per atom, per side: the original-value candidate and the range
    // candidate with the fix-frequency supports.
    for (v <- violations; (t1, x1, t2, x2) <- oriented(v); (at, k, chg) <- perAtom) {
      cand(t1, at.attr, x1(k), "=", nFixes - chg); cand(t1, at.attr, x2(k), at.invertedOpT1, chg)
      cand(t2, at.attr, x2(k), "=", nFixes - chg); cand(t2, at.attr, x1(k), at.invertedOpT2, chg)
    }

    support.toSeq.groupBy(_._1._1).map { case (tid, cs) =>
      tid -> cs.groupBy(_._1._2).map { case (attr, acs) =>
        val tot = acs.map(_._2).sum.toDouble
        attr -> acs.map { case ((_, _, v, op), n) => (v, op, n) }.sortBy(c => (c._1, c._2))
          .map { case (v, op, n) => Row(v, op, n / tot, "DC", n) }
      }
    }
  }

  /** Schema of the rows of [[fixes]]: (tid, attr, cands). */
  private val fixSchema = StructType(Seq(StructField(tidC, LongType), StructField("attr", StringType),
    StructField("cands", ProbData.CandType)))

  /** [[fixesOf]] over violation rows from [[ThetaJoin.violations]]: a
    * local DataFrame of (tid, attr, cands) per fixed cell.
    */
  def fixes(violations: DataFrame, dc: InequalityDc, maxFixAtoms: Int = 1): DataFrame = {
    val rows = for ((tid, byAttr) <- fixesOf(ThetaJoin.violationsFrom(violations, dc), dc, maxFixAtoms).toSeq;
                    (attr, cs) <- byAttr) yield Row(tid, attr, cs)
    violations.sparkSession.createDataFrame(rows.asJava, fixSchema)
  }

  /** The state with the fixes of `fixes` replacing the candidate sets of
    * the DC's attributes and the tuples of `marked` checked by `dc`, in
    * one pass over the state that looks each tuple up by its tid.
    * Replacing is exact: callers pass the fixes of every violation pair
    * found so far, so a DC cell without a fix never had a DC candidate,
    * and no other rule writes a DC attribute's candidates
    * ([[Rule.requireExclusiveDcAttrs]]).
    */
  private def overwrite(state: DataFrame, fixes: Map[Long, Map[String, Seq[Row]]], marked: Set[Long],
                        dc: InequalityDc): DataFrame = {
    val table = (fixes.keySet ++ marked).map { tid =>
      val byAttr = fixes.getOrElse(tid, Map.empty[String, Seq[Row]])
      InternalRow(tid) -> (dc.attrs.map(a => ProbData.toCatalyst(byAttr.getOrElse(a, null))), marked(tid))
    }.toMap
    ProbData.applyFixTable(state, Seq(col(tidC)), table, dc.attrs, dc.id)((_, fix) => fix)
  }

  /** [[overwrite]] with the fixes of `fixesDf` (rows of [[fixes]]) and the
    * tids of `checkedTids`' first column, both collected to the driver.
    */
  def applyFixesOverwrite(state: DataFrame, fixesDf: DataFrame, checkedTids: DataFrame,
                          dc: InequalityDc): DataFrame = {
    val fixes = fixesDf.select(tidC, "attr", "cands").collect().toSeq
      .groupMap(_.getLong(0))(r => r.getString(1) -> r.getSeq[Row](2))
      .map { case (tid, cs) => tid -> cs.toMap }
    val marked = checkedTids.select(col(checkedTids.columns.head)).collect()
      .collect { case r if !r.isNullAt(0) => r.getLong(0) }.toSet
    overwrite(state, fixes, marked, dc)
  }

  /** The DC clean path shared by Daisy and the offline cleaner: repairs
    * every pair of `violations` (from [[ThetaJoin.violationsOf]]) and
    * marks the tuples of those pairs checked by `dc`. Returns the lazily
    * checkpointed state and the number of marked tuples.
    */
  def clean(state: DataFrame, violations: Iterable[ThetaJoin.Violation], dc: InequalityDc,
            maxFixAtoms: Int = 1): (DataFrame, Long) = {
    val touched = violations.iterator.flatMap(v => Iterator(v.tid1, v.tid2)).toSet
    (overwrite(state, fixesOf(violations, dc, maxFixAtoms), touched, dc), touched.size.toLong)
  }
}
