package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Reference implementation of the joins of `clean_⋈` as a shuffle join:
  * each side exploded once per candidate key value, one equi-join on the
  * value, then duplicate (`__ltid`, `__rtid`) pairs dropped. The
  * lookup joins of [[CleanOps.probEquiJoin]] and
  * [[CleanOps.incrementalJoin]] must give the same rows on every input;
  * see [[JoinDifferentialSpec]].
  */
object JoinReference {

  private val tidC = ProbData.TidCol

  /** [[CleanOps.probEquiJoin]]: the same columns in the same order. */
  def probEquiJoin(left: DataFrame, right: DataFrame,
                   leftKey: String, rightKey: String): DataFrame = {
    val l = left.withColumnRenamed(tidC, "__ltid")
      .withColumn("__kv", explode(ProbData.valuesExpr(left, leftKey)))
    val r = renameRight(right.withColumn("__kv", explode(ProbData.valuesExpr(right, rightKey))),
      left.columns.toSet)
    val cols = Seq("__rtid", "__ltid") ++ l.columns.filter(c => c != "__ltid" && c != "__kv") ++
      r.columns.filter(c => c != "__rtid" && c != "__kv")
    l.join(r, "__kv").dropDuplicates("__ltid", "__rtid").select(cols.map(col): _*)
  }

  /** [[CleanOps.incrementalJoin]] over [[probEquiJoin]]. */
  def incrementalJoin(existing: DataFrame, left: DataFrame, rightExtra: DataFrame,
                      leftKey: String, rightKey: String): DataFrame = {
    val cols = existing.columns.map(col)
    existing.join(rightExtra.select(col(tidC).as("__rtid")), Seq("__rtid"), "left_anti").select(cols: _*)
      .union(probEquiJoin(left, rightExtra, leftKey, rightKey).select(cols: _*))
  }

  private def renameRight(right: DataFrame, leftCols: Set[String]): DataFrame = {
    var r = right.withColumnRenamed(tidC, "__rtid")
      .withColumnRenamed(ProbData.ChkCol, "__rchk")
    for (c <- r.columns if leftCols.contains(c))
      r = r.withColumnRenamed(c, "r_" + c)
    r
  }
}
