package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.api.java.UDF1
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, StructType}

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
    * right-side bookkeeping columns are prefixed with `__r`. Null key
    * values and range candidates match nothing. One job collects the
    * right part, which must fit in memory; see [[lookupJoin]].
    */
  def probEquiJoin(left: DataFrame, right: DataFrame,
                   leftKey: String, rightKey: String): DataFrame =
    lookupJoin(left, right, leftKey, rightKey)._1

  /** Incremental join update (§5.1, Fig. 3): replaces the rows of the
    * `rightExtra` tuples in the existing result by their join against
    * the left part — the second join of the plan after `clean_⋈` runs.
    * One job collects the `rightExtra` tuples: their tids drop their old
    * rows, and their rows are the re-join ([[lookupJoin]]).
    */
  def incrementalJoin(existing: DataFrame, left: DataFrame, rightExtra: DataFrame,
                      leftKey: String, rightKey: String): DataFrame = {
    val (rejoined, tids) = lookupJoin(left, rightExtra, leftKey, rightKey)
    val cols = existing.columns.map(col)
    existing.filter(!ProbData.keyIn(existing, col("__rtid"), tids.toSet[Any]))
      .select(cols: _*)
      .union(rejoined.select(cols: _*))
  }

  /** The one join kernel of `clean_⋈`: one job collects `right`, renamed
    * by [[renameRight]], with its candidate key values; the rows and a
    * value → row-index map reach the tasks as one broadcast variable. Each
    * row of `left` looks its candidate key values up and is paired once
    * with every right row sharing one of them, by one explode: no join,
    * no exchange. Returns the pairs, `__rtid` and `__ltid` first, then
    * the columns of `left` and of the renamed `right`, and the collected
    * right tids.
    */
  private def lookupJoin(left: DataFrame, right: DataFrame,
                         leftKey: String, rightKey: String): (DataFrame, Seq[Long]) = {
    val r = renameRight(right.withColumn("__rvs", ProbData.valuesExpr(right, rightKey)), left.columns.toSet)
    val collected = r.collect()
    val rowType = StructType(r.schema.init)
    val table = left.sparkSession.sparkContext.broadcast((
      collected.map(row => Row.fromSeq(row.toSeq.init)),
      collected.toSeq.zipWithIndex.flatMap { case (row, i) =>
        row.getSeq[String](rowType.length).filter(_ != null).map(_ -> i)
      }.groupMap(_._1)(_._2)))
    val partners = udf(new UDF1[collection.Seq[String], Seq[Row]] {
      def call(vs: collection.Seq[String]): Seq[Row] = {
        val (rows, byValue) = table.value
        vs.flatMap(byValue.getOrElse(_, Nil)).distinct.map(rows(_)).toSeq
      }
    }, ArrayType(rowType))
    val l = left.withColumnRenamed(tidC, "__ltid")
    val cols = Seq("__rtid", "__ltid") ++ l.columns.filter(_ != "__ltid") ++
      rowType.fieldNames.filter(_ != "__rtid")
    (l.withColumn("__r", explode(partners(ProbData.valuesExpr(left, leftKey))))
      .select(l.columns.map(col) :+ col("__r.*"): _*)
      .select(cols.map(col): _*), collected.map(_.getAs[Long]("__rtid")).toSeq)
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
