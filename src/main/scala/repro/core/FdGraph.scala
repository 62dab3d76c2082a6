package repro.core

import org.apache.spark.sql.{Column, DataFrame, ReproCheckpoint}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** The value graph of one FD over one state: the rule's distinct tuple
  * signatures with their tuple counts, collected to the driver by one
  * Spark job. A signature holds everything the FD clean path reads of a
  * tuple, so relaxation ([[Relaxation.closure]]), detection and repair
  * ([[FdRepair.fixesOf]]) and the §5.2 statistics
  * ([[CostModel.statsOf]]) run on the driver, and the driver holds one
  * row per distinct signature, not per tuple.
  */
final class FdGraph private (val state: DataFrame, val fd: Fd, val member: Column,
                             val sigs: IndexedSeq[FdGraph.Sig]) {

  /** Number of tuples whose signature satisfies `p`. */
  def count(p: FdGraph.Sig => Boolean): Long = sigs.iterator.filter(p).map(_.cnt).sum

  /** The BigDansing-style lhs group-by of the tuples selected by `p`. */
  def byLhs(p: FdGraph.Sig => Boolean): Map[String, Map[String, Long]] =
    FdGraph.pairCounts(sigs.filter(p)).groupBy(_._1._1)
      .map { case (lv, ps) => lv -> ps.map { case ((_, rv), n) => rv -> n } }

  /** The violating groups of [[byLhs]]: >1 distinct non-null rhs value. */
  def dirtyGroups(p: FdGraph.Sig => Boolean): Map[String, Map[String, Long]] =
    byLhs(p).filter { case (_, rvs) => rvs.keys.count(_ != null) > 1 }
}

object FdGraph {

  /** One distinct tuple signature and the number of tuples sharing it:
    * base lhs and rhs values (multi-attribute lhs joined by
    * [[Relaxation.Sep]]), candidate lhs and rhs values, checked by the
    * rule, rhs / single-attribute lhs cell already probabilistic (the
    * confirmations of §4.3), and membership in the caller's answer.
    */
  final case class Sig(lv: String, rv: String, lvs: Seq[String], rvs: Seq[String],
                       checked: Boolean, dR: Boolean, dL: Boolean, in: Boolean, cnt: Long)

  def baseLhs(fd: Fd): Column = concat_ws(Relaxation.Sep, fd.lhs.map(col): _*)
  def baseRhs(fd: Fd): Column = col(fd.rhs).cast("string")

  def dirtyFlag(state: DataFrame, attr: String): Column =
    if (ProbData.hasCands(state, attr)) ProbData.isDirty(attr) else lit(false)
  def dirtyLhsFlag(state: DataFrame, fd: Fd): Column =
    if (fd.lhs.size == 1) dirtyFlag(state, fd.lhs.head) else lit(false)

  /** Collects the signatures of every tuple; `member` marks the answer.
    * Each task counts its distinct signatures over the scanned rows, and
    * the driver merges the counts and converts each distinct signature
    * once.
    */
  def collect(state: DataFrame, fd: Fd, member: Column): FdGraph = {
    val in = coalesce(member, lit(false))
    val rows = ReproCheckpoint.scan(state, Seq(
      baseLhs(fd), baseRhs(fd), Relaxation.lhsValues(state, fd),
      ProbData.valuesExpr(state, fd.rhs), coalesce(ProbData.checkedBy(fd.id), lit(false)),
      dirtyFlag(state, fd.rhs), dirtyLhsFlag(state, fd), in)).rows
    val counts = rows.mapPartitions { it =>
      val n = mutable.HashMap[InternalRow, Long]()
      // Scanned rows are reused: a new signature is copied.
      it.foreach(r => n.get(r) match {
        case Some(c) => n(r) = c + 1L
        case None => n(r.copy()) = 1L
      })
      n.iterator
    }.collect()
    val sigs = counts.groupMapReduce(_._1)(_._2)(_ + _).map { case (r, n) =>
      Sig(ProbData.string(r, 0), ProbData.string(r, 1), ProbData.strings(r.getArray(2)),
        ProbData.strings(r.getArray(3)), r.getBoolean(4), r.getBoolean(5), r.getBoolean(6), r.getBoolean(7), n)
    }.toIndexedSeq
    new FdGraph(state, fd, in, sigs)
  }

  /** Membership in the tids of `tids`' first column, collected to the driver. */
  def memberOf(tids: DataFrame): Column = {
    val ids = ReproCheckpoint.scan(tids, Seq(col(tids.columns.head))).collect()
      .collect { case r if !r.isNullAt(0) => r.getLong(0) }.distinct
    col(ProbData.TidCol).isin(ids.toSeq: _*)
  }

  /** Σ tuple count per base (lv, rv) pair. */
  def pairCounts(sigs: Iterable[Sig]): Map[(String, String), Long] =
    sigs.groupMapReduce(s => (s.lv, s.rv))(_.cnt)(_ + _)
}
