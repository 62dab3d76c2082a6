package org.apache.spark.sql

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{BindReferences, Expression, InterpretedUnsafeProjection}
import org.apache.spark.sql.catalyst.optimizer.OptimizeIn
import org.apache.spark.sql.catalyst.plans.logical.{Filter, LogicalPlan, Project}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.types.StructType

/** Stats-free local checkpoints, and the one interpreted scan that every
  * driver-side collection runs.
  *
  * `Dataset.localCheckpoint` in Spark 4 bakes the parent plan's
  * *estimated* statistics into the resulting `LogicalRDD`
  * (`LogicalRDD.rewriteStatsAndConstraints`). Size-in-bytes estimation
  * multiplies across (outer-)join children, and Daisy's state update
  * joins the state against several frames derived from the state
  * itself — so the baked estimate grows geometrically with every
  * checkpoint generation, until Catalyst spends minutes multiplying
  * million-digit BigIntegers during planning.
  *
  * This helper checkpoints like `localCheckpoint(eager)` but rebuilds
  * the DataFrame directly from the checkpointed internal-row RDD,
  * dropping the inherited statistics (the leaf then reports the
  * session's `spark.sql.defaultSizeInBytes`). It lives in the
  * `org.apache.spark.sql` package to reach the `private[sql]`
  * `internalCreateDataFrame`, which [[checkpointed]] also serves to
  * frames built over internal rows, and `classic.Dataset.ofRows`, which
  * [[scan]] plans a frame's input with.
  *
  * An eager checkpoint runs one job now. A lazy one runs none: the first
  * later action that reads the frame computes and stores its blocks and
  * then truncates its lineage, and Spark's `LocalRDDCheckpointData` fills
  * in any partition that action skipped. Until then the frame's lineage,
  * and so its parents' blocks, must stay available.
  */
object ReproCheckpoint {
  def statsFree(df: Dataset[Row], eager: Boolean = true): Dataset[Row] = {
    val classicDf = df.asInstanceOf[classic.Dataset[Row]]
    val ck = classicDf.localCheckpoint(eager).asInstanceOf[classic.Dataset[Row]]
    fromRows(ck.sparkSession, ck.queryExecution.toRdd, ck.schema)
  }

  /** A frame whose plan is one leaf over `rows`, which must have `schema`. */
  private def fromRows(spark: SparkSession, rows: RDD[InternalRow], schema: StructType): Dataset[Row] =
    spark.asInstanceOf[classic.SparkSession].internalCreateDataFrame(rows, schema)

  /** A frame over copies of `rows`, which must have `schema`, checkpointed
    * lazily as [[statsFree]] with `eager = false` checkpoints a frame's
    * rows, but with no frame to plan. Like `Dataset.localCheckpoint`, it
    * checkpoints a copying step of its own, so once the lineage is
    * truncated nothing holds on to what the producer of `rows` captured.
    */
  def checkpointed(spark: SparkSession, rows: RDD[InternalRow], schema: StructType): Dataset[Row] =
    fromRows(spark, rows.map(_.copy()).localCheckpoint(), schema)

  /** Materializes a lazy [[statsFree]] checkpoint in place: one job over
    * every partition of `df`, which stores the checkpoint's blocks.
    */
  def materialize(df: Dataset[Row]): Dataset[Row] = {
    df.asInstanceOf[classic.Dataset[Row]].queryExecution.toRdd.count()
    df
  }

  /** Columns of a frame bound for interpreted evaluation (see [[scan]]).
    * `exprs` read the rows of `input`, which are the frame's rows: the
    * input of its filters, kept where every filter holds.
    */
  final class Scan private[ReproCheckpoint] (spark: SparkSession, leaf: RDD[InternalRow],
                                             filters: Seq[Expression], val exprs: Seq[Expression],
                                             val schema: StructType) {
    /** The frame's rows, in its columns' order. */
    def input: RDD[InternalRow] =
      if (filters.isEmpty) leaf else { val fs = filters; leaf.filter(r => fs.forall(_.eval(r) == true)) }

    /** `exprs` of [[input]], with `schema`: one projection per partition
      * writes them, reusing its output row.
      */
    def rows: RDD[InternalRow] = {
      val es = exprs
      input.mapPartitions { it =>
        val project = InterpretedUnsafeProjection.createProjection(es)
        it.map(project)
      }
    }

    /** [[rows]] on the driver, by one job. */
    def collect(): Array[InternalRow] = rows.map(_.copy()).collect()

    /** A frame over [[rows]]: no job runs until it is read. */
    def frame: Dataset[Row] = fromRows(spark, rows, schema)
  }

  /** The one scan of every driver-side collection. `cols` are resolved
    * against `df`, with `isin` lists turned into hash sets; the filters
    * right under them are peeled off `df`'s plan, and both are bound to
    * the output of the plan left below. That plan alone is planned, unless
    * it is a leaf over rows, such as a checkpoint, and the filters and
    * columns are evaluated on its rows, interpreted:
    * neither is compiled, so a new literal or a new column list costs no
    * code generation.
    */
  def scan(df: Dataset[Row], cols: Seq[Column]): Scan = {
    val projected = df.select(cols: _*).asInstanceOf[classic.Dataset[Row]]
    val (list, top) = OptimizeIn(projected.queryExecution.analyzed) match { case Project(l, t) => (l, t) }
    // Innermost first, as the plan evaluates them.
    def peel(p: LogicalPlan, fs: List[Expression]): (LogicalPlan, List[Expression]) = p match {
      case Filter(c, child) => peel(child, c :: fs)
      case _ => (p, fs)
    }
    val (below, filters) = peel(top, Nil)
    def bound(e: Expression) = BindReferences.bindReference(e, below.output)
    val spark = projected.sparkSession
    // A leaf over rows is read as it is; anything else is planned.
    val input = below match {
      case l: LogicalRDD => l.rdd
      case p => classic.Dataset.ofRows(spark, p).queryExecution.toRdd
    }
    new Scan(spark, input, filters.map(bound), list.map(bound), projected.schema)
  }
}
