package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** Query-result relaxation (§4.1, Algorithm 1).
  *
  * Given a query answer A over a dataset d and an FD `lhs → rhs`, the
  * relaxed result augments A with the *correlated tuples*: tuples
  * sharing an lhs value or an rhs value with the (growing) result,
  * iterated to a fixpoint (transitive closure). The correlated tuples
  * are exactly the context needed to compute the same candidate fixes
  * an offline cleaner would compute from the whole dataset.
  */
object Relaxation {

  /** Separator for multi-attribute lhs values. */
  val Sep = "\u0001"

  /** Outcome of Algorithm 1. */
  final case class Relaxed(
      /** tids of A ∪ total_extra. */
      tids: DataFrame,
      /** tids of total_extra only (the correlated tuples). */
      extraTids: DataFrame,
      iterations: Int,
      extraCount: Long)

  /** Every candidate lhs value of a tuple as an array; multi-attr lhs
    * values are the combinations of the per-attribute candidates,
    * concatenated with [[Sep]].
    */
  def lhsValues(state: DataFrame, fd: Fd): Column = {
    val per = fd.lhs.map(a => ProbData.valuesExpr(state, a))
    val combos = per.tail.foldLeft(transform(per.head, x => array(x))) { (acc, vs) =>
      flatten(transform(acc, p => transform(vs, y => concat(p, array(y)))))
    }
    transform(combos, p => concat_ws(Sep, p))
  }

  /** The closure of Algorithm 1 on the value graph. The relaxed result
    * is A plus every tuple with a candidate lhs value in `lhsVals` or a
    * candidate rhs value in `rhsVals`: the values of the result at the
    * start of the last iteration.
    */
  final case class Closure(iterations: Int, extraCount: Long,
                           lhsVals: Set[String], rhsVals: Set[String]) {

    def contains(s: FdGraph.Sig): Boolean =
      s.in || s.lvs.exists(lhsVals) || s.rvs.exists(rhsVals)

    /** [[contains]] as a predicate over the graph's state. */
    def member(g: FdGraph): Column = {
      def overlaps(values: Column, vs: Set[String]) =
        if (vs.isEmpty) lit(false) else arrays_overlap(values, typedLit(vs.toSeq.sorted))
      coalesce(g.member || overlaps(lhsValues(g.state, g.fd), lhsVals) ||
        overlaps(ProbData.valuesExpr(g.state, g.fd.rhs), rhsVals), lit(false))
    }
  }

  /** Algorithm 1 as a breadth-first search over lhs and rhs value nodes.
    * Each iteration adds the unreached tuples sharing a value with the
    * result at iteration start (lines 4-10), so the tuples found within
    * an iteration do not feed its own value sets: this keeps Example 2
    * at one iteration while Example 3's lhs filter closes transitively.
    * `maxIter` bounds the closure; Lemma 1 guarantees one iteration
    * suffices for filters on the rhs.
    */
  def closure(g: FdGraph, maxIter: Int): Closure = {
    val sigs = g.sigs
    def index(values: FdGraph.Sig => Seq[String]) =
      sigs.indices.flatMap(i => values(sigs(i)).filter(_ != null).map(_ -> i)).groupMap(_._1)(_._2)
    val (byL, byR) = (index(_.lvs), index(_.rvs))
    def valuesOf(is: Iterable[Int]) =
      (is.flatMap(sigs(_).lvs).toSet, is.flatMap(sigs(_).rvs).filter(_ != null).toSet)

    val reached = mutable.BitSet(sigs.indices.filter(sigs(_).in): _*)
    var (seenL, seenR) = valuesOf(reached)
    var (frontL, frontR, startL, startR) = (seenL, seenR, Set.empty[String], Set.empty[String])
    var (iter, extra, done) = (0, 0L, false)
    while (!done && iter < maxIter) {
      iter += 1
      startL = seenL; startR = seenR
      val found = (frontL.flatMap(byL.getOrElse(_, Nil)) ++ frontR.flatMap(byR.getOrElse(_, Nil))) -- reached
      reached ++= found
      extra += found.iterator.map(sigs(_).cnt).sum
      val (l, r) = valuesOf(found)
      frontL = l -- seenL; frontR = r -- seenR
      seenL ++= frontL; seenR ++= frontR
      done = found.isEmpty
    }
    Closure(iter, extra, startL, startR)
  }

  /** The relaxed result of `c` as tid frames over the graph's state. */
  def relaxed(g: FdGraph, c: Closure): Relaxed = {
    def tids(p: Column) = g.state.filter(p).select(ProbData.TidCol)
    Relaxed(tids(c.member(g)), tids(c.member(g) && !g.member), c.iterations, c.extraCount)
  }

  /** Algorithm 1. `answerTids` is a single-column DataFrame of the
    * tids of the dirty query answer A. Returns the relaxed result.
    */
  def relax(state: DataFrame, answerTids: DataFrame, fd: Fd, maxIter: Int = 20): Relaxed = {
    val g = FdGraph.collect(state, fd, FdGraph.memberOf(answerTids))
    relaxed(g, closure(g, maxIter))
  }
}
