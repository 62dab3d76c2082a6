package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit

/** Cost-based decision between incremental and full cleaning (§5.2).
  *
  * Statistics are precomputed exactly as the paper describes: a
  * group-by on the lhs of each FD (number and size of erroneous
  * groups, ε) and on the rhs (number of candidate values, p). At query
  * time the tracker accumulates the incremental-cleaning cost of the
  * executed workload (relaxation + detection + repair + in-place
  * update, §5.2.2) and compares it against the offline cost
  * (§5.2.1 + query execution, §5.2.3); when the accumulated
  * incremental cost exceeds the offline bound, Daisy switches strategy
  * and cleans the remaining dirty part of the dataset in one pass
  * (Fig. 7/12 behaviour).
  */
object CostModel {

  /** Precomputed per-FD statistics. */
  final case class FdStats(
      /** Dataset size n. */
      n: Long,
      /** Number of erroneous (violating) tuples ε. */
      epsilon: Long,
      /** Number of erroneous lhs groups. */
      dirtyGroups: Long,
      /** Avg candidate values per erroneous cell (the p of §5.2.3). */
      p: Double,
      /** The violating lhs values — the pruning list Daisy consults to
        * skip violation checks for values outside any dirty group
        * (§7.1 "Increasing number of violations").
        */
      dirtyLhs: Set[String])

  /** Precomputes [[FdStats]] from the rule's value graph. */
  def fdStats(state: DataFrame, fd: Fd): FdStats =
    statsOf(FdGraph.collect(state, fd, lit(false)))

  /** [[FdStats]] of the whole state the graph was collected from. */
  def statsOf(g: FdGraph): FdStats = {
    val dirty = g.dirtyGroups(_ => true)
    val ndr = dirty.values.map(_.keys.count(_ != null))
    FdStats(g.count(_ => true), dirty.values.map(_.values.sum).sum, dirty.size,
      if (dirty.isEmpty) 0.0 else ndr.sum.toDouble / dirty.size, dirty.keySet)
  }

  /** Offline (full-cleaning) cost of §5.2.1 plus executing q queries:
    * qn + df + εn + n + εp, with FD detection df = n.
    */
  def offlineCost(st: FdStats, q: Int): Double =
    q.toDouble * st.n + st.n + st.epsilon.toDouble * st.n + st.n + st.epsilon * st.p

  /** Incremental cost of one query (§5.2.2): relaxation over the
    * unknown part, detection over q_i + e_i, repair ε_i·(q_i + e_i),
    * and the probabilistic in-place update.
    */
  def incrementalQueryCost(st: FdStats, qi: Long, ei: Long, epsi: Long,
                           sumPrevQ: Long, sumPrevEps: Long): Double = {
    val relax  = math.max(0L, st.n - sumPrevQ).toDouble
    val detect = (qi + ei).toDouble
    val repair = epsi.toDouble * (qi + ei)
    val update = math.max(0L, st.n - sumPrevEps).toDouble + sumPrevEps * st.p + epsi * st.p
    relax + detect + repair + update
  }

  /** Mutable per-rule tracker consulted after every query. */
  final class Tracker(val stats: FdStats) {
    private var sumQ   = 0L
    private var sumEps = 0L
    private var nQueries = 0
    private var cumInc = 0.0
    private var switched = false

    def register(qi: Long, ei: Long, epsi: Long): Unit = {
      cumInc += incrementalQueryCost(stats, qi, ei, epsi, sumQ, sumEps)
      sumQ += qi; sumEps += epsi; nQueries += 1
    }

    /** §5.2.3 inequality: switch to cleaning the remaining dirty part
      * when the accumulated incremental cost exceeds the offline cost
      * of the workload executed so far.
      */
    def shouldSwitchToFull: Boolean =
      !switched && nQueries > 0 && cumInc > offlineCost(stats, nQueries)

    def markSwitched(): Unit = switched = true
    def hasSwitched: Boolean = switched
  }
}
