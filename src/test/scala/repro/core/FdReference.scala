package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.api.java.UDF2
import org.apache.spark.sql.catalyst.CatalystTypeConverters
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.ProbData.MaterializeOps
import repro.core.TestData.fixCol
import scala.jdk.CollectionConverters._

/** Reference implementation of the FD clean path as DataFrame fixpoint
  * loops: Algorithm 1 by iterated semi-joins over candidate-value views
  * and FD repair by group-bys and joins over the state. The value-graph
  * kernel ([[FdGraph]], [[Relaxation.closure]], [[FdRepair.fixesOf]])
  * must agree with it on every input; see [[FdKernelDifferentialSpec]].
  */
object FdReference {

  /** Fixes of [[computeFixes]]: (tid, fix columns) per repaired tuple. */
  final case class RefFixes(fixes: DataFrame, nDirty: Long, nDirtyGroups: Long)

  private val tidC = ProbData.TidCol

  /** [[ProbData.mergeCandSeqs]] as a Spark function. */
  val mergeCands: UserDefinedFunction = udf(new UDF2[Seq[Row], Seq[Row], Seq[Row]] {
    override def call(a: Seq[Row], b: Seq[Row]): Seq[Row] = ProbData.mergeCandSeqs(a, b)
  }, ProbData.CandType)

  /** The kernel's fixes in the form of [[RefFixes]]: (tid, fix columns),
    * one row per tuple of `state` whose signature, with `member` marking
    * the answer of the graph the fixes came from, has a fix in the fix
    * table. The signatures are matched as structs by a join.
    */
  def fixTable(state: DataFrame, fd: Fd, member: Column, fixes: FdRepair.Fixes): DataFrame = {
    val fixCols = (fd.lhs :+ fd.rhs).map(fixCol)
    val key = struct(FdGraph.sigCols(state, fd, member): _*)
    val keyType = state.select(key).schema.head.dataType
    val (toKey, toCands) = (CatalystTypeConverters.createToScalaConverter(keyType),
      CatalystTypeConverters.createToScalaConverter(ProbData.CandType))
    val rows = fixes.table.toSeq.collect { case (k, (fs, _)) if fs.exists(_ != null) =>
      Row.fromSeq(toKey(k) +: fs.map(toCands))
    }
    val byKey = state.sparkSession.createDataFrame(rows.asJava,
      StructType(StructField("__key", keyType) +: fixCols.map(StructField(_, ProbData.CandType))))
    state.select(col(tidC), key.as("__k"))
      .join(byKey, col("__k") <=> col("__key"))
      .select((col(tidC) +: fixCols.map(col)): _*)
  }

  /** (tid, lv) — every candidate lhs value of every tuple; multi-attr
    * lhs values are concatenated with [[Relaxation.Sep]].
    */
  def lhsValues(state: DataFrame, fd: Fd): DataFrame = {
    var df = state.select(col(ProbData.TidCol) +:
      fd.lhs.zipWithIndex.map { case (a, i) => ProbData.valuesExpr(state, a).as(s"__a$i") }: _*)
    for (i <- fd.lhs.indices)
      df = df.withColumn(s"__e$i", explode(col(s"__a$i"))).drop(s"__a$i")
    df.select(col(ProbData.TidCol),
      concat_ws(Relaxation.Sep, fd.lhs.indices.map(i => col(s"__e$i")): _*).as("lv"))
  }

  /** (tid, rv) — every candidate rhs value of every tuple. */
  def rhsValues(state: DataFrame, fd: Fd): DataFrame =
    state.select(col(tidC), explode(ProbData.valuesExpr(state, fd.rhs)).as("rv"))

  /** Algorithm 1. `answerTids` is a single-column DataFrame of the
    * tids of the dirty query answer A. Returns the relaxed result.
    *
    * `maxIter` bounds the transitive closure; Lemma 1 guarantees one
    * iteration suffices for filters on the rhs, filters on the lhs may
    * need more (Example 3).
    */
  def relax(state: DataFrame, answerTids: DataFrame, fd: Fd, maxIter: Int = 20): Relaxation.Relaxed = {
    val tidC = ProbData.TidCol
    val lv = lhsValues(state, fd).materialized
    val rv = rhsValues(state, fd).materialized

    var result = answerTids.select(col(answerTids.columns.head).as(tidC)).distinct()
      .materialized
    var unvisited = state.select(tidC).join(result, Seq(tidC), "left_anti")
      .materialized
    var totalExtra = 0L
    var extras: DataFrame = result.limit(0).materialized
    var iter = 0
    var done = false

    while (!done && iter < maxIter) {
      iter += 1
      // Lines 4-5: A_lhs / A_rhs from the result at iteration start —
      // the extra tuples found within the iteration do not feed its own
      // value sets (this is what keeps Example 2 at one iteration while
      // Example 3's lhs filter closes transitively across iterations).
      // The two filters of lines 6-10 fold into one semi-join pass:
      // extra = unvisited ⋉ (lhs ∈ A_lhs ∨ rhs ∈ A_rhs).
      val aLhs = lv.join(result, tidC).select("lv").distinct()
      val aRhs = rv.join(result, tidC).select("rv").distinct()
      val extra = unvisited.join(lv, tidC).join(aLhs, "lv").select(tidC)
        .union(unvisited.join(rv, tidC).join(aRhs, "rv").select(tidC))
        .distinct().materialized
      val n = extra.count()
      if (n > 0) {
        unvisited = unvisited.join(extra, Seq(tidC), "left_anti").materialized
        result = result.union(extra).materialized
        extras = extras.union(extra)
        totalExtra += n
      }
      done = n == 0
    }
    Relaxation.Relaxed(result, extras.distinct().materialized, iter, totalExtra)
  }

  /** Base (original-value) lhs/rhs view of the subset: (tid, lv, rv). */
  private def baseView(state: DataFrame, subsetTids: DataFrame, fd: Fd): DataFrame = {
    val sub = subsetTids.select(col(subsetTids.columns.head).as(tidC)).distinct()
    state.join(sub, tidC)
      .select(col(tidC),
        concat_ws(Relaxation.Sep, fd.lhs.map(col): _*).as("lv"),
        col(fd.rhs).cast("string").as("rv"))
  }

  /** Detects violating lhs groups in the subset and computes the
    * probabilistic fixes for every tuple belonging to one.
    */
  def computeFixes(state: DataFrame, subsetTids: DataFrame, fd: Fd): RefFixes = {
    // Materialized early: everything below joins against these views
    // repeatedly, and bounded plan depth keeps Catalyst's size-in-bytes
    // estimation (which multiplies across joins) cheap.
    val g = baseView(state, subsetTids, fd).materialized

    val pairCnt = g.groupBy("lv", "rv").agg(count(lit(1)).as("cnt")).materialized

    // P(lhs | rhs) statistics come from *every* tuple sharing an rhs
    // value with the subset, even outside the relaxed result — Table 2b
    // computes P(Zip | City=SF) = {9001 50%, 10001 50%} using the
    // (10001, SF) tuple that the one-iteration relaxation of Example 2
    // does not return. Those context tuples contribute statistics only;
    // they are neither repaired nor marked checked here.
    val rvs = g.select("rv").distinct()
    val pairCntCtx = state
      .select(col(tidC),
        concat_ws(Relaxation.Sep, fd.lhs.map(col): _*).as("lv"),
        col(fd.rhs).cast("string").as("rv"))
      .join(rvs, "rv")
      .groupBy("lv", "rv").agg(count(lit(1)).as("cnt"))
      .materialized

    // rhs candidates per dirty lhs group, P(rhs|lhs) = cnt / Σcnt.
    val byL = pairCnt.groupBy("lv").agg(
      countDistinct("rv").as("ndr"),
      sum("cnt").as("tot"),
      array_sort(collect_list(struct(col("rv"), col("cnt")))).as("cands"))
    val dirtyL = byL.filter(col("ndr") > 1)
      .select(col("lv"),
        transform(col("cands"), c => struct(
          c.getField("rv").as("v"), lit("=").as("op"),
          (c.getField("cnt") / col("tot")).cast("double").as("p"),
          lit("R").as("w"), c.getField("cnt").cast("long").as("n"))).as("rhsCands"))

    // lhs candidates per rhs value over the rhs-sharing context, P(lhs|rhs).
    val byR = pairCntCtx.groupBy("rv").agg(
      countDistinct("lv").as("ndl"),
      sum("cnt").as("tot"),
      array_sort(collect_list(struct(col("lv"), col("cnt")))).as("cands"))
    val multiR = byR.filter(col("ndl") > 1)
      .select(col("rv"),
        transform(col("cands"), c => struct(
          c.getField("lv").as("v"), lit("=").as("op"),
          (c.getField("cnt") / col("tot")).cast("double").as("p"),
          lit("L").as("w"), c.getField("cnt").cast("long").as("n"))).as("lvCands"))

    val dirtyTuples = g.join(dirtyL, "lv").materialized
    val nDirtyGroups = dirtyL.count()

    var fixes = dirtyTuples
      .join(multiR, Seq("rv"), "left")
      .select(col(tidC), col("rhsCands").as(fixCol(fd.rhs)), col("lvCands"))

    // Confirmations (§4.3): a rule also contributes its conditional
    // distribution to cells that *other* rules already made
    // probabilistic, even when its own group is consistent —
    // P(zip | name) = {z, 100%} from a clean name-group merges into a
    // speculative candidate set from zip → city and re-weights the
    // original value ("the probability of each fix must combine the
    // probabilities that stem from all the rules affecting the cell").
    val dirtyFlags = state.select(col(tidC),
      (if (ProbData.hasCands(state, fd.rhs)) ProbData.isDirty(fd.rhs)
       else lit(false)).as("__dR"),
      (if (fd.lhs.size == 1 && ProbData.hasCands(state, fd.lhs.head))
        ProbData.isDirty(fd.lhs.head) else lit(false)).as("__dL"))
    val groupTot = byL.select(col("lv"), col("tot"))
    val rhsConf = g.join(dirtyFlags, tidC).filter(col("__dR"))
      .join(dirtyL.select("lv"), Seq("lv"), "left_anti")
      .join(groupTot, "lv")
      .select(col(tidC),
        array(struct(col("rv").as("v"), lit("=").as("op"), lit(1.0).as("p"),
          lit("R").as("w"), col("tot").cast("long").as("n"))).as(fixCol(fd.rhs)),
        lit(null).cast(ProbData.CandType).as("lvCands"))
    val lhsConf = if (fd.lhs.size == 1) {
      g.join(dirtyFlags, tidC).filter(col("__dL"))
        .join(multiR.select("rv"), Seq("rv"), "left_anti")
        .join(pairCntCtx, Seq("lv", "rv"))
        .select(col(tidC),
          lit(null).cast(ProbData.CandType).as(fixCol(fd.rhs)),
          array(struct(col("lv").as("v"), lit("=").as("op"), lit(1.0).as("p"),
            lit("L").as("w"), col("cnt").cast("long").as("n"))).as("lvCands"))
    } else rhsConf.limit(0)
    val confirmations = rhsConf.unionByName(lhsConf)
      .groupBy(tidC).agg(
        first(col(fixCol(fd.rhs)), ignoreNulls = true).as(fixCol(fd.rhs)),
        first(col("lvCands"), ignoreNulls = true).as("lvCands"))
    fixes = fixes.unionByName(confirmations)
      .groupBy(tidC).agg(
        first(col(fixCol(fd.rhs)), ignoreNulls = true).as(fixCol(fd.rhs)),
        first(col("lvCands"), ignoreNulls = true).as("lvCands"))

    // Split concatenated lhs candidates into per-attribute candidate
    // sets. For a single-attribute lhs this is exact; for multi-attr
    // lhs the per-attribute marginals lose cross-attribute correlation
    // (candidate combinations), which only the multi-attr air-quality
    // rule exercises — its repairs are rhs-side.
    val k = fd.lhs.size
    if (k == 1) {
      fixes = fixes.withColumnRenamed("lvCands", fixCol(fd.lhs.head))
    } else {
      for ((a, i) <- fd.lhs.zipWithIndex) {
        val parts = transform(col("lvCands"), c => struct(
          element_at(split(c.getField("v"), Relaxation.Sep), i + 1).as("v"),
          c.getField("op").as("op"), c.getField("p").as("p"),
          c.getField("w").as("w"), c.getField("n").as("n")))
        fixes = fixes.withColumn(fixCol(a),
          when(col("lvCands").isNull, lit(null).cast(ProbData.CandType))
            .otherwise(mergeCands(parts, lit(null).cast(ProbData.CandType))))
      }
      fixes = fixes.drop("lvCands")
    }

    RefFixes(fixes.materialized, dirtyTuples.count(), nDirtyGroups)
  }

  /** Applies `fixes` to the state: merges new candidate sets into the
    * sidecar columns (union semantics of §4.3) and marks every tuple
    * of `subsetTids` as checked by `fd`. Base columns are untouched —
    * they are the provenance to the original values.
    */
  def applyFixes(state: DataFrame, fixes: RefFixes, subsetTids: DataFrame, fd: Fd): DataFrame = {
    var out = state.join(fixes.fixes, Seq(tidC), "left")
    for (a <- fd.lhs :+ fd.rhs) {
      val fixC = fixCol(a)
      val cc   = ProbData.candCol(a)
      out = out.withColumn(cc,
        when(col(fixC).isNull, col(cc))
          .otherwise(mergeCands(col(cc), col(fixC))))
        .drop(fixC)
    }
    markChecked(out, subsetTids, fd.id)
  }

  /** Marks `ruleId` as checked on the rows whose tid appears in
    * `tids` (a single-column DataFrame of tuple ids).
    */
  private[core] def markChecked(state: DataFrame, tids: DataFrame, ruleId: String): DataFrame = {
    val t = tids.toDF(tidC).distinct().withColumn("__hit", lit(true))
    state.join(t, Seq(tidC), "left")
      .withColumn(ProbData.ChkCol,
        when(col("__hit"), array_union(col(ProbData.ChkCol), array(lit(ruleId))))
          .otherwise(col(ProbData.ChkCol)))
      .drop("__hit")
  }

  /** `clean_σ` as composed from the reference relaxation and repair. */
  def cleanSelectFd(state: DataFrame, answerTids: DataFrame, fd: Fd,
                    maxIter: Int = 20): (DataFrame, Relaxation.Relaxed, RefFixes) = {
    val relaxed = relax(state, answerTids, fd, maxIter)
    val unchecked = state.filter(!ProbData.checkedBy(fd.id)).select(tidC)
      .join(relaxed.tids, tidC).materialized
    val fixes = computeFixes(state, unchecked, fd)
    (applyFixes(state, fixes, unchecked, fd).materialized, relaxed, fixes)
  }
}
