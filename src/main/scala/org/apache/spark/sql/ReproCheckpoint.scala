package org.apache.spark.sql

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.StructType

/** Stats-free local checkpoints.
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
  * frames built over internal rows.
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
}
