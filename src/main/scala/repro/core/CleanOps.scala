package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.api.java.UDF1
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.ArrayType

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
    val (l, r) = (explodeLeft(left, leftKey), keyedRight(right, rightKey, left.columns.toSet))
    pairs(l.join(broadcast(r.withColumn("__kv", explode(col("__rvs")))), "__kv"), l, r)
  }

  /** Incremental join update (§5.1, Fig. 3): replaces the rows of the
    * `rightExtra` tuples in the existing result by their join against
    * the left part — the second join of the plan after `clean_⋈` runs.
    * One job collects the `rightExtra` tuples; their tids drop their old
    * rows, and the left part's rows look their key values up in them,
    * shipped as a broadcast variable, which runs no job.
    */
  def incrementalJoin(existing: DataFrame, left: DataFrame, rightExtra: DataFrame,
                      leftKey: String, rightKey: String): DataFrame = {
    val (l, r) = (explodeLeft(left, leftKey), keyedRight(rightExtra, rightKey, left.columns.toSet))
    val rows = r.collect()
    val byValue = left.sparkSession.sparkContext.broadcast(rows.toSeq.flatMap { row =>
      row.getSeq[String](row.fieldIndex("__rvs")).filter(_ != null).map(_ -> row)
    }.groupMap(_._1)(_._2))
    val partners = udf(new UDF1[String, Seq[Row]] {
      def call(v: String): Seq[Row] = byValue.value.getOrElse(v, Nil)
    }, ArrayType(r.schema))
    val rejoined = l.withColumn("__r", explode(partners(col("__kv"))))
      .select(l.columns.map(col) :+ col("__r.*"): _*)
    val cols = existing.columns.map(col)
    existing.filter(!ProbData.keyIn(existing, col("__rtid"), rows.map(_.getAs[Long]("__rtid")).toSet))
      .select(cols: _*)
      .union(pairs(rejoined, l, r).select(cols: _*))
  }

  /** `left` with `__tid` renamed to `__ltid`, its distinct key values
    * `__lvs` and one row per value `__kv`.
    */
  private def explodeLeft(left: DataFrame, leftKey: String): DataFrame =
    left.withColumnRenamed(tidC, "__ltid")
      .withColumn("__lvs", array_distinct(ProbData.valuesExpr(left, leftKey)))
      .withColumn("__kv", explode(col("__lvs")))

  /** `right` renamed by [[renameRight]], with its distinct key values `__rvs`. */
  private def keyedRight(right: DataFrame, rightKey: String, leftCols: Set[String]): DataFrame =
    renameRight(right.withColumn("__rvs", array_distinct(ProbData.valuesExpr(right, rightKey))), leftCols)

  /** The join result from `matched`, the rows of `l` and `r` joined on
    * the key value `__kv`: a pair sharing several values is kept at the
    * smallest of them only, and the helper columns are dropped.
    */
  private def pairs(matched: DataFrame, l: DataFrame, r: DataFrame): DataFrame = {
    val helper = Set("__kv", "__lvs", "__rvs")
    val cols = Seq("__rtid", "__ltid") ++ l.columns.filter(c => c != "__ltid" && !helper(c)) ++
      r.columns.filter(c => c != "__rtid" && !helper(c))
    matched.filter(col("__kv") === array_min(array_intersect(col("__lvs"), col("__rvs"))))
      .select(cols.map(col): _*)
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
