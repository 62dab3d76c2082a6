package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The probabilistic and incremental joins behind `clean_⋈`
  * (Definition 3), DataFrame → DataFrame transforms. [[Daisy]] holds
  * the stateful orchestration (in-place dataset update, bookkeeping,
  * cost model) and runs `clean_σ` (Definition 2) with [[FdRepair.clean]]
  * and [[DcRepair.clean]].
  */
object CleanOps {

  private val tidC = ProbData.TidCol

  /** Probabilistic equi-join (§4): a pair qualifies iff the candidate
    * value sets of the join keys overlap. The result keeps the lineage
    * (originating tuple ids of both sides, as the paper stores for
    * potential later inference) plus every column of both inputs;
    * right-side bookkeeping columns are prefixed with `__r`.
    *
    * Each side's rows are exploded once per distinct candidate key value
    * and joined on the value as a broadcast hash join, the right part
    * being the broadcast side, so it must fit in memory. A pair sharing
    * several values is kept at the smallest of them only, which needs no
    * exchange. Null key values and range candidates match nothing.
    */
  def probEquiJoin(left: DataFrame, right: DataFrame,
                   leftKey: String, rightKey: String): DataFrame = {
    val l = left.withColumnRenamed(tidC, "__ltid")
      .withColumn("__lvs", array_distinct(ProbData.valuesExpr(left, leftKey)))
      .withColumn("__kv", explode(col("__lvs")))
    val r = renameRight(right.withColumn("__rvs", array_distinct(ProbData.valuesExpr(right, rightKey)))
      .withColumn("__kv", explode(col("__rvs"))), left.columns.toSet)
    val helper = Set("__kv", "__lvs", "__rvs")
    val cols = Seq("__rtid", "__ltid") ++ l.columns.filter(c => c != "__ltid" && !helper(c)) ++
      r.columns.filter(c => c != "__rtid" && !helper(c))
    l.join(broadcast(r), "__kv")
      .filter(col("__kv") === array_min(array_intersect(col("__lvs"), col("__rvs"))))
      .select(cols.map(col): _*)
  }

  /** Incremental join update (§5.1, Fig. 3): replaces the rows of the
    * `rightExtra` tuples in the existing result by their join against
    * the left part — the second join of the plan after `clean_⋈` runs.
    * Both joins broadcast the `rightExtra` side.
    */
  def incrementalJoin(existing: DataFrame, left: DataFrame, rightExtra: DataFrame,
                      leftKey: String, rightKey: String): DataFrame = {
    val cols = existing.columns.map(col)
    existing.join(broadcast(rightExtra.select(col(tidC).as("__rtid"))), Seq("__rtid"), "left_anti")
      .select(cols: _*)
      .union(probEquiJoin(left, rightExtra, leftKey, rightKey).select(cols: _*))
  }

  /** `right` with `__tid` and `__chk` renamed to `__rtid` and `__rchk`,
    * then every column named like one of `leftCols` prefixed with `r_`.
    */
  private def renameRight(right: DataFrame, leftCols: Set[String]): DataFrame =
    right.select(right.columns.toSeq.map { c =>
      val n = if (c == tidC) "__rtid" else if (c == ProbData.ChkCol) "__rchk" else c
      col(c).as(if (leftCols.contains(n)) "r_" + n else n)
    }: _*)
}
