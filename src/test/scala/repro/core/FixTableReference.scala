package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.api.java.{UDF1, UDF2}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.ProbData.{ChkCol, CandType, candCol}

/** Reference implementation of the candidate-apply step as one Catalyst
  * projection of the state: per rule attribute, a Scala UDF that tells
  * whether the tuple's key has a fix and one that applies it to the
  * cell's candidates as Scala rows, and an `array_union` for the checked
  * marks. The row-level kernel of [[ProbData.applyFixTable]] must give
  * the same rows and schema on every input; see
  * [[FixTableDifferentialSpec]].
  */
object FixTableReference {

  /** [[ProbData.applyFixTable]] with `update` over Scala rows. */
  def applyFixTable(state: DataFrame, key: Column, fixes: Map[Any, Seq[Seq[Row]]], attrs: Seq[String],
                    ruleId: String, mark: Column)(update: (Seq[Row], Seq[Row]) => Seq[Row]): DataFrame = {
    val table = state.sparkSession.sparkContext.broadcast(fixes)
    val updated = attrs.indices.map { i =>
      def fixOf(k: Any): Seq[Row] = if (k == null) null else table.value.get(k).map(_(i)).orNull
      val hasFix = udf(new UDF1[Any, Boolean] { def call(k: Any): Boolean = fixOf(k) != null }, BooleanType)
      val fixed = udf(new UDF2[Any, Seq[Row], Seq[Row]] {
        def call(k: Any, old: Seq[Row]): Seq[Row] = update(old, fixOf(k))
      }, CandType)
      val cc = col(candCol(attrs(i)))
      candCol(attrs(i)) -> when(hasFix(key), fixed(key, cc)).otherwise(cc)
    }.toMap + (ChkCol -> when(mark, array_union(col(ChkCol), array(lit(ruleId)))).otherwise(col(ChkCol)))
    state.select(state.columns.toSeq.map(c => updated.get(c).fold(col(c))(_.as(c))): _*)
  }
}
