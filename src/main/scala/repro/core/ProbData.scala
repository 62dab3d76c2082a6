package repro.core

import org.apache.spark.sql.{Column, DataFrame, ReproCheckpoint, Row}
import org.apache.spark.sql.api.java.{UDF1, UDF2}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Attribute-level probabilistic representation (§4).
  *
  * Every attribute that participates in a rule gets a sidecar column
  * `attr__c : array<struct<v,op,p,w,n>>`:
  *
  *  - `v`  — candidate value (or numeric bound for range candidates),
  *  - `op` — "=" for a concrete candidate value, "<" / ">" for the
  *    open ranges produced by holistic DC repair (Example 5),
  *  - `p`  — frequency-based probability of the candidate (§4.1);
  *    candidates of one cell always sum to 1,
  *  - `w`  — the world/pair the candidate belongs to ("R": rhs-repair
  *    world keeping the lhs, "L": lhs-repair world keeping the rhs,
  *    "DC": holistic range fix) — the identifier the paper stores
  *    inside each candidate value,
  *  - `n`  — support count (number of correlated tuples / violating
  *    pairs backing the candidate), used to merge candidate sets of
  *    multiple rules by union (§4.3, Lemma 4).
  *
  * An empty/null sidecar means the cell is clean and its value lives
  * in the base column. When a cell becomes probabilistic the base
  * column *keeps the original value* — that is the provenance the
  * paper maintains to merge newly-arriving rules (§4, Table 7).
  *
  * `__chk : array<string>` records the rule ids that already checked a
  * tuple, so later queries skip it (§4.3 "Daisy maintains information
  * about the already checked tuples by each rule").
  */
object ProbData {

  val TidCol  = "__tid"
  val ChkCol  = "__chk"

  /** Stats-free local checkpoints, used instead of `localCheckpoint`
    * everywhere (see [[org.apache.spark.sql.ReproCheckpoint]] for why
    * inherited statistics must be dropped).
    */
  implicit final class MaterializeOps(private val df: DataFrame) extends AnyVal {
    /** Eager: one Spark job now. */
    def materialized: DataFrame = ReproCheckpoint.statsFree(df)

    /** Lazy: no job now; the first action that reads the frame stores it
      * and truncates its lineage. A state that the next step collects
      * anyway is checkpointed this way, so it costs no job of its own.
      */
    def checkpointed: DataFrame = ReproCheckpoint.statsFree(df, eager = false)

    /** This [[checkpointed]] frame, stored now by one job. */
    def forced: DataFrame = ReproCheckpoint.materialize(df)
  }

  val CandStruct: StructType = StructType(Seq(
    StructField("v", StringType),
    StructField("op", StringType),
    StructField("p", DoubleType),
    StructField("w", StringType),
    StructField("n", LongType),
  ))
  val CandType: ArrayType = ArrayType(CandStruct)

  /** Name of the candidate sidecar column of `attr`. */
  def candCol(attr: String): String = attr + "__c"

  /** True iff `df` carries a candidate sidecar for `attr`. */
  def hasCands(df: DataFrame, attr: String): Boolean =
    df.columns.contains(candCol(attr))

  /** Lifts a plain relation into Daisy's state representation: casts
    * every rule attribute to string, adds empty candidate sidecars for
    * every rule attribute and an empty `__chk`. The relation must carry
    * its own `__tid` column: generated ids would depend on the input's
    * partitioning, so Daisy and the offline cleaner could number one
    * relation differently.
    */
  def init(df: DataFrame, rules: Seq[Rule]): DataFrame = {
    require(df.columns.contains(TidCol),
      s"the relation has no tuple-id column '$TidCol'; add a stable long id per row")
    val ruleAttrs = rules.flatMap(_.attrs).distinct.filter(df.columns.contains)
    val added = ruleAttrs.map(a => candCol(a) -> lit(null).cast(CandType)) :+
      (ChkCol -> array().cast(ArrayType(StringType)))
    val replaced = ruleAttrs.map(a => a -> col(a).cast(StringType)).toMap ++ added
    df.select(df.columns.toSeq.map(c => replaced.get(c).fold(col(c))(_.as(c))) ++
      added.collect { case (c, e) if !df.columns.contains(c) => e.as(c) }: _*)
  }

  /** Column of candidate *equality* values of `attr` as an array —
    * the base value for clean cells, the candidate `v`s for dirty ones
    * (range candidates carry no enumerable value and are excluded).
    */
  def valuesExpr(df: DataFrame, attr: String): Column = {
    val c = col(candCol(attr))
    if (!hasCands(df, attr)) array(col(attr).cast(StringType))
    else when(c.isNull || size(c) === 0, array(col(attr).cast(StringType)))
      .otherwise(transform(filter(c, x => x.getField("op") === "="), x => x.getField("v")))
  }

  /** Probabilistic qualification of a predicate (§4): a tuple
    * qualifies iff its clean value satisfies the predicate or at least
    * one candidate does.
    */
  def qualifies(df: DataFrame, pred: Pred): Column = {
    val base = pred.onValue(col(pred.attr))
    if (!hasCands(df, pred.attr)) base
    else {
      val c = col(candCol(pred.attr))
      when(c.isNull || size(c) === 0, base)
        .otherwise(exists(c, x => pred.onCandidate(x)))
    }
  }

  /** Conjunction of [[qualifies]] over `preds` (true when empty). */
  def qualifiesAll(df: DataFrame, preds: Seq[Pred]): Column =
    preds.map(qualifies(df, _)).foldLeft(lit(true))(_ && _)

  /** True iff the cell of `attr` is probabilistic. */
  def isDirty(attr: String): Column = {
    val c = col(candCol(attr))
    c.isNotNull && size(c) > 0
  }

  /** Merges two candidate sets by value union: supports (`n`) add up
    * and probabilities are recomputed as n/Σn (§4.3 — P(X|Y∪Z)).
    * Commutative and associative (Lemma 4). Null-tolerant: merging
    * with a clean side returns the other side unchanged.
    */
  private[core] def mergeCandSeqs(a: Seq[Row], b: Seq[Row]): Seq[Row] = {
    val xs = (Option(a).getOrElse(Nil) ++ Option(b).getOrElse(Nil))
    if (xs.isEmpty) null
    else {
      val grouped = xs.groupBy(r => (r.getString(0), r.getString(1))).toSeq
        .map { case ((v, op), rs) =>
          (v, op, rs.map(_.getLong(4)).sum, rs.map(_.getString(3)).distinct.sorted.mkString("+"))
        }
      val total = grouped.map(_._3).sum.toDouble.max(1.0)
      grouped.sortBy { case (v, op, _, _) => (op, Option(v)) }
        .map { case (v, op, n, w) => Row(v, op, n / total, w, n) }
    }
  }

  /** Canonical form for assertions: candidates sorted, probabilities
    * rounded — lets tests compare candidate sets deterministically.
    */
  def canonCands(df: DataFrame, attr: String): DataFrame = {
    val c = col(candCol(attr))
    df.withColumn(candCol(attr),
      when(c.isNull, c).otherwise(
        array_sort(transform(c, x => struct(
          x.getField("v").as("v"), x.getField("op").as("op"),
          round(x.getField("p"), 4).as("p"), x.getField("w").as("w"),
          x.getField("n").as("n"))))))
  }

  /** The one candidate-apply step of every rule (§4.3). `fixes` is a
    * driver-side fix table: per fix key, the new candidate sets of
    * `attrs` in that order, null for an attribute without a fix. It
    * reaches the tasks as a broadcast variable, which runs no Spark job.
    * A tuple whose `key` (null: no fix) has a fix for `a` gets
    * `update(old, fix)` as the candidate set of `a`, a tuple satisfying
    * `mark` becomes checked by `ruleId`, and the result has the state's
    * columns. Every expression reads the row before the update.
    */
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
      // `hasFix` first: a cell without a fix is kept without converting it.
      candCol(attrs(i)) -> when(hasFix(key), fixed(key, cc)).otherwise(cc)
    }.toMap + (ChkCol -> when(mark, array_union(col(ChkCol), array(lit(ruleId)))).otherwise(col(ChkCol)))
    state.select(state.columns.toSeq.map(c => updated.get(c).fold(col(c))(_.as(c))): _*)
  }

  /** True for the tuples whose `key` is in `keys`, shipped as a broadcast
    * variable: unlike an `isin` list, the plan's code does not change
    * with the keys, so it compiles once.
    */
  def keyIn(state: DataFrame, key: Column, keys: Set[Any]): Column = {
    val set = state.sparkSession.sparkContext.broadcast(keys)
    udf(new UDF1[Any, Boolean] { def call(k: Any): Boolean = set.value(k) }, BooleanType)(key)
  }

  /** True for tuples already checked by `ruleId`. */
  def checkedBy(ruleId: String): Column = array_contains(col(ChkCol), ruleId)
}
