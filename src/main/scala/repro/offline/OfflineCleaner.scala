package repro.offline

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.ProbData.MaterializeOps

/** The paper's offline comparator (§7, "our own offline implementation
  * over Spark"): full-dataset error detection and probabilistic repair.
  *
  * Two repair modes:
  *
  *  - [[Mode.Bulk]] — detection via a group-by on the lhs (the
  *    BigDansing optimization) and repair of all dirty groups in one
  *    shot. This is the §7.1 comparator that ties with Daisy when a
  *    workload covers the whole dataset.
  *  - [[Mode.PerGroup]] — the §5.2.1 cost shape O(ε·n): the repair
  *    "performs multiple scans to compute the candidate values for
  *    each error", i.e. one pass over the dataset per erroneous group.
  *    Each pass is one collection of the rule's [[FdGraph]] with the
  *    group as its members, so a run costs one Spark job per dirty
  *    group plus a constant. This is what makes offline cleaning
  *    collapse on Nestle/air quality, where erroneous groups number in
  *    the thousands (§7.3: "the number of iterations over the dataset
  *    is proportional to the number of detected erroneous groups").
  *    A wall-clock timeout mirrors the paper's one-day cap; groups the
  *    loop never reached stay unchecked and certain.
  *
  * An inequality DC runs Daisy's DC kernel over the whole matrix: one
  * collection of its points ([[ThetaJoin.bucketize]]), detection and
  * repair on the driver, one rewrite ([[DcRepair.clean]]).
  *
  * Both modes run the same FD repair kernel ([[FdRepair]]) and, unless
  * the timeout hits, produce the same probabilistic state, which equals
  * Daisy's after a whole-dataset workload — the equivalence the paper
  * reports ("Daisy outputs the same results with the offline approach").
  */
object OfflineCleaner {

  sealed trait Mode
  object Mode {
    case object Bulk extends Mode
    case object PerGroup extends Mode
  }

  /** Result of an offline run. */
  final case class Result(state: DataFrame, seconds: Double, timedOut: Boolean,
                          groupsProcessed: Long, groupsTotal: Long)

  /** Cleans all rules over the whole dataset. `timeoutSec` only
    * applies to [[Mode.PerGroup]].
    */
  def run(df: DataFrame, rules: Seq[Rule], mode: Mode = Mode.Bulk,
          timeoutSec: Double = Double.PositiveInfinity,
          dcPartitions: Int = 64): Result = {
    Rule.requireExclusiveDcAttrs(rules)
    val t0 = System.nanoTime()
    // Each step's state is checkpointed lazily: the next step's collection
    // stores it, and the final state is stored before the clock stops.
    var state = ProbData.init(df, rules).checkpointed
    var timedOut = false
    var done = 0L
    var total = 0L
    for (r <- rules if !timedOut) r match {
      case fd: Fd => mode match {
        case Mode.Bulk =>
          val (cleaned, fixes) = FdRepair.cleanUnchecked(state, fd)
          state = cleaned
          done += fixes.nDirtyGroups; total += fixes.nDirtyGroups
        case Mode.PerGroup =>
          // Unless the loop timed out, the clean groups still need the
          // §4.3 confirmations and the checked marks.
          val lvs = FdGraph.collect(state, fd, lit(true)).dirtyGroups(_ => true).keys.toVector.sorted
          val (s, fixes) = FdRepair.cleanGroups(state, fd, lvs, (System.nanoTime() - t0) / 1e9 > timeoutSec)
          done += fixes.nDirtyGroups; total += lvs.size
          timedOut = fixes.nDirtyGroups < lvs.size
          state = if (timedOut) s else FdRepair.cleanUnchecked(s, fd)._1
      }
      case dc: InequalityDc =>
        val buck = ThetaJoin.bucketize(state, dc, dcPartitions)
        val pairs = ThetaJoin.candidatePairs(dc, buck.stats)
        state = DcRepair.clean(state, ThetaJoin.violationsOf(buck.points, _ => false, dc, pairs), dc)._1
    }
    Result(state.forced, (System.nanoTime() - t0) / 1e9, timedOut, done, total)
  }

}
