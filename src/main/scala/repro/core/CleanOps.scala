package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, ReproCheckpoint}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{BoundReference, InterpretedUnsafeProjection, JoinedRow}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType

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
    * right part, which must fit in memory; see [[lookupJoin]]. The result
    * is a frame over the pairs, checkpointed lazily: no job runs now.
    */
  def probEquiJoin(left: DataFrame, right: DataFrame,
                   leftKey: String, rightKey: String): DataFrame = {
    val j = lookupJoin(left, right, leftKey, rightKey, None)
    ReproCheckpoint.checkpointed(left.sparkSession, j.rows, j.schema)
  }

  /** Incremental join update (§5.1, Fig. 3): replaces the rows of the
    * `rightExtra` tuples in the existing result by their join against
    * the left part — the second join of the plan after `clean_⋈` runs.
    * One job collects the `rightExtra` tuples: their tids drop their old
    * rows, and their rows are the re-join ([[lookupJoin]]), in the
    * columns of `existing`. The result is checkpointed lazily.
    */
  def incrementalJoin(existing: DataFrame, left: DataFrame, rightExtra: DataFrame,
                      leftKey: String, rightKey: String): DataFrame = {
    val j = lookupJoin(left, rightExtra, leftKey, rightKey, Some(existing.columns.toSeq))
    val kept = ReproCheckpoint.scan(existing.filter(!col("__rtid").isin(j.rightTids: _*)), Nil).input
    val schema = StructType(existing.schema.zip(j.schema).map { case (a, b) =>
      a.copy(nullable = a.nullable || b.nullable)
    })
    ReproCheckpoint.checkpointed(existing.sparkSession, kept.union(j.rows), schema)
  }

  /** Pairs of [[lookupJoin]] with their schema, and the collected right tids. */
  private final case class Lookup(rows: RDD[InternalRow], schema: StructType, rightTids: Seq[Long])

  /** The one join kernel of `clean_⋈`: one job collects `right`, its
    * columns renamed (`__tid` and `__chk` to `__rtid` and `__rchk`, then
    * every name that `left` has prefixed with `r_`), with its candidate
    * key values; the rows and a value → row-index map reach the tasks as
    * one broadcast variable. Each row of `left` looks its candidate key
    * values up and is paired once with every right row sharing one of
    * them, through one projection of the joined rows: no join, no
    * exchange. The pairs have the columns `cols`, by default `__rtid` and
    * `__ltid` first, then the columns of `left` and of the renamed
    * `right`. Both sides are read by [[ReproCheckpoint.scan]].
    */
  private def lookupJoin(left: DataFrame, right: DataFrame, leftKey: String, rightKey: String,
                         cols: Option[Seq[String]]): Lookup = {
    val renamed = right.columns.toSeq.map { c =>
      val n = if (c == tidC) "__rtid" else if (c == ProbData.ChkCol) "__rchk" else c
      c -> (if (left.columns.contains(n)) "r_" + n else n)
    }
    val r = ReproCheckpoint.scan(right,
      renamed.map { case (c, n) => col(c).as(n) } :+ ProbData.valuesExpr(right, rightKey))
    val l = ReproCheckpoint.scan(left, left.columns.toSeq.map(col) :+ ProbData.valuesExpr(left, leftKey))
    val (nL, nR) = (left.columns.length, renamed.size)
    val collected = r.collect()
    val byValue = collected.indices.flatMap(i =>
      ProbData.strings(collected(i).getArray(nR)).filter(_ != null).map(_ -> i)).groupMap(_._1)(_._2)
    val table = left.sparkSession.sparkContext.broadcast((collected, byValue))

    // Each output column: its field and its ordinal in (left row, right row).
    val ltid = left.columns.indexOf(tidC)
    val rtid = renamed.indexWhere(_._2 == "__rtid")
    val fields = Seq(r.schema(rtid) -> (nL + 1 + rtid), l.schema(ltid).copy(name = "__ltid") -> ltid) ++
      (0 until nL).filter(_ != ltid).map(i => l.schema(i) -> i) ++
      (0 until nR).filter(_ != rtid).map(i => r.schema(i) -> (nL + 1 + i))
    val out = cols.fold(fields)(_.map(c => fields.find(_._1.name == c).getOrElse(
      throw new IllegalArgumentException(s"the join has no column '$c'"))))
    val refs = out.map { case (f, i) => BoundReference(i, f.dataType, nullable = true) }
    val rows = l.rows.mapPartitions[InternalRow] { it =>
      val (rightRows, partners) = table.value
      val project = InterpretedUnsafeProjection.createProjection(refs)
      val joined = new JoinedRow
      it.flatMap { row =>
        ProbData.strings(row.getArray(nL)).filter(_ != null).flatMap(partners.getOrElse(_, Nil)).distinct
          .iterator.map(i => project(joined(row, rightRows(i))))
      }
    }
    Lookup(rows, StructType(out.map(_._1)), collected.toSeq.map(_.getLong(rtid)))
  }
}
