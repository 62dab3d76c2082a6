package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.api.java.{UDF1, UDF2}
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.util.ArrayData
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.ProbData.{ChkCol, CandType, candCol}

/** Reference implementation of the candidate-apply step as one Catalyst
  * projection of the state: the fix table is converted to Scala rows on
  * the driver, and a tuple's key is the struct of the key columns,
  * computed once in a projection below the update. Per
  * rule attribute, a Scala UDF tells whether the tuple's key has a fix
  * and one applies it to the cell's candidates as Scala rows; a third
  * tells whether the key is marked, which an `array_union` applies. The
  * row-level kernel of [[ProbData.applyFixTable]] must give the same rows
  * and schema on every input; see [[FixTableDifferentialSpec]].
  */
object FixTableReference {

  /** [[ProbData.applyFixTable]] with `update` over Scala rows. */
  def applyFixTable(state: DataFrame, key: Seq[Column], fixes: Map[InternalRow, (Seq[ArrayData], Boolean)],
                    attrs: Seq[String], ruleId: String)(update: (Seq[Row], Seq[Row]) => Seq[Row]): DataFrame = {
    val keyType = StructType(state.select(key: _*).schema.fields)
    val (toKey, toCands) = (CatalystTypeConverters.createToScalaConverter(keyType),
      CatalystTypeConverters.createToScalaConverter(CandType))
    val table = state.sparkSession.sparkContext.broadcast(fixes.map { case (k, (fs, mark)) =>
      toKey(k) -> (fs.map(toCands(_).asInstanceOf[Seq[Row]]), mark)
    })
    val keyed = state.withColumn("__key", struct(key: _*))
    val k = col("__key")
    val updated = attrs.indices.map { i =>
      def fixOf(k: Row): Seq[Row] = table.value.get(k).map(_._1(i)).orNull
      val hasFix = udf(new UDF1[Row, Boolean] { def call(k: Row): Boolean = fixOf(k) != null }, BooleanType)
      val fixed = udf(new UDF2[Row, Seq[Row], Seq[Row]] {
        def call(k: Row, old: Seq[Row]): Seq[Row] = update(old, fixOf(k))
      }, CandType)
      val cc = col(candCol(attrs(i)))
      candCol(attrs(i)) -> when(hasFix(k), fixed(k, cc)).otherwise(cc)
    }.toMap
    val marked = udf(new UDF1[Row, Boolean] { def call(k: Row): Boolean = table.value.get(k).exists(_._2) },
      BooleanType)
    val chk = ChkCol -> when(marked(k), array_union(col(ChkCol), array(lit(ruleId)))).otherwise(col(ChkCol))
    keyed.select(state.columns.toSeq.map(c => (updated + chk).get(c).fold(col(c))(_.as(c))): _*)
  }
}
