package repro.holoclean

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{Fd, ProbData, Relaxation}
import repro.core.ProbData.MaterializeOps

/** Simplified reimplementation of HoloClean (Rekatsinas et al., VLDB
  * 2017) used as the paper's comparator in Tables 5–7.
  *
  * Faithful in structure, not in learning machinery:
  *
  *  - *error detection* from the provided denial constraints (dirty
  *    lhs groups),
  *  - *domain generation from quantitative statistics*: candidate
  *    values of a dirty cell are collected from co-occurrence with the
  *    tuple's other attribute values over the whole dataset — this is
  *    why HoloClean resolves single-rule ambiguities Daisy's
  *    rule-driven domains cannot (Table 5, φ1), and also why it is
  *    expensive (one co-occurrence pass per attribute pair),
  *  - *domain pruning* to the top-K candidates ("Holoclean prunes the
  *    domain of each value using a threshold for performance" — the
  *    source of its recall loss with more rules),
  *  - *inference* as iterative weighted-feature scoring (co-occurrence
  *    strength, minimality prior, violation reduction against the
  *    current assignment) instead of a factor graph.
  *
  * `DaisyH` runs the same inference over Daisy's relaxation-driven
  * candidate domains, and `DaisyP` blindly picks Daisy's most probable
  * candidate — the three rows of Table 5.
  */
object HolocleanLite {

  /** Domain size after pruning, inference sweeps, and the feature
    * weights of co-occurrence, minimality and violation reduction.
    */
  private val DomainK = 4
  private val Sweeps = 3
  private val WCooc = 1.0
  private val WMin = 0.4
  private val WVio = 1.2

  /** (tid, attr, value) cell updates plus wall time. */
  final case class Repairs(updates: DataFrame, seconds: Double)

  final case class Metrics(precision: Double, recall: Double, f1: Double,
                           nUpdates: Long, nCorrect: Long, nErrors: Long)

  private val tidC = ProbData.TidCol

  /** Internal bookkeeping columns never used as evidence. */
  private def evidenceAttrs(df: DataFrame): Seq[String] =
    df.columns.filterNot(c => c.startsWith("__") || c.endsWith("__c")).toSeq

  /** Cells flagged dirty by the constraints: the rhs cell of every
    * tuple in a violating lhs group, plus the lhs cell when the
    * tuple's rhs value co-occurs with more than one lhs value.
    */
  def dirtyCells(df: DataFrame, fds: Seq[Fd]): DataFrame = {
    fds.map { fd =>
      val g = df.select(col(tidC),
        concat_ws(Relaxation.Sep, fd.lhs.map(col): _*).as("lv"),
        col(fd.rhs).cast("string").as("rv"))
      val dirtyL = g.groupBy("lv").agg(countDistinct("rv").as("ndr")).filter(col("ndr") > 1)
      val dirtyTuples = g.join(dirtyL.select("lv"), "lv")
      val rhsCells = dirtyTuples.select(col(tidC), lit(fd.rhs).as("attr"), col("rv").as("orig"))
      val multiR = g.groupBy("rv").agg(countDistinct("lv").as("ndl")).filter(col("ndl") > 1)
      val lhsCells = dirtyTuples.join(multiR.select("rv"), "rv")
        .select(col(tidC), lit(fd.lhs.mkString(Relaxation.Sep)).as("attr"), col("lv").as("orig"))
        .filter(lit(fd.lhs.size) === 1) // multi-attr lhs cells are repaired via the rhs
      rhsCells.union(lhsCells)
    }.reduce(_ union _).distinct()
  }

  /** Quantitative-statistics domain generation: for every dirty cell
    * (t, A), candidates are the values of A that co-occur with t's
    * value of some other attribute B, scored by Σ_B P(A = v | B = t.B)
    * and pruned to the top `k`.
    */
  def coocDomains(df: DataFrame, cells: DataFrame, k: Int): DataFrame = {
    val attrs = evidenceAttrs(df)
    val dirtyAttrs = cells.select("attr").distinct().collect().map(_.getString(0)).toSeq

    val perAttr = dirtyAttrs.map { a =>
      val aCells = cells.filter(col("attr") === a)
      val others = attrs.filterNot(_ == a)
      // One co-occurrence pass per (A, B) attribute pair.
      val contributions = others.map { b =>
        val pair = df.groupBy(col(a).cast("string").as("v"), col(b).cast("string").as("bv"))
          .agg(count(lit(1)).as("cnt"))
        val bTotals = df.groupBy(col(b).cast("string").as("bv")).agg(count(lit(1)).as("btot"))
        val scored = pair.join(bTotals, "bv")
          .select(col("v"), col("bv"), (col("cnt") / col("btot")).as("s"))
        aCells.join(df.select(col(tidC), col(b).cast("string").as("bv")), tidC)
          .join(scored, "bv")
          .select(col(tidC), col("attr"), col("v"), col("s"))
      }
      contributions.reduce(_ union _)
        .groupBy(tidC, "attr", "v").agg(sum("s").as("cooc"))
        .materialized
    }
    val all = perAttr.reduce(_ union _)
    val w = Window.partitionBy(tidC, "attr").orderBy(col("cooc").desc, col("v"))
    all.withColumn("__rk", row_number().over(w)).filter(col("__rk") <= k).drop("__rk")
      .join(cells, Seq(tidC, "attr"))
  }

  /** Iterative weighted-feature inference over candidate domains.
    * `domains`: (tid, attr, v, cooc, orig). Returns the final repairs
    * (cells whose argmax differs from the original value).
    */
  def infer(df: DataFrame, domains0: DataFrame, fds: Seq[Fd]): DataFrame = {
    val domains = domains0.materialized
    val maxCooc = domains.agg(coalesce(max("cooc"), lit(1.0))).collect().head.getDouble(0)
    var assigned = domains.select(col(tidC), col("attr"), col("orig").as("cur"))
      .distinct().materialized

    var result: DataFrame = null
    for (_ <- 1 to Sweeps) {
      // Current view of the dataset with assignments applied.
      var cur = df
      for (a <- domains.select("attr").distinct().collect().map(_.getString(0))) {
        val asg = assigned.filter(col("attr") === a)
          .select(col(tidC), col("cur").as(s"__cur_$a"))
        cur = cur.join(asg, Seq(tidC), "left")
          .withColumn(a, coalesce(col(s"__cur_$a"), col(a).cast("string")))
          .drop(s"__cur_$a")
      }
      cur = cur.materialized

      // Violation-reduction feature against the current assignment:
      // the candidate matches the majority rhs of its (current) lhs
      // group / moves the tuple into a group consistent with its rhs.
      var vioScores = domains.select(col(tidC), col("attr"), col("v"), lit(0.0).as("vio"))
        .limit(0)
      for (fd <- fds) {
        val g = cur.select(col(tidC),
          concat_ws(Relaxation.Sep, fd.lhs.map(col): _*).as("lv"),
          col(fd.rhs).cast("string").as("rv"))
          .materialized
        val majority = g.groupBy("lv", "rv").agg(count(lit(1)).as("c"))
          .withColumn("__rk", row_number().over(
            Window.partitionBy("lv").orderBy(col("c").desc, col("rv"))))
          .filter(col("__rk") === 1).select(col("lv"), col("rv").as("majRv"))
          .materialized
        // rhs cells: candidate == majority of the tuple's group.
        val rhsVio = domains.filter(col("attr") === fd.rhs)
          .join(g.select(col(tidC), col("lv")), tidC)
          .join(majority, "lv")
          .select(col(tidC), col("attr"), col("v"),
            when(col("v") === col("majRv"), 1.0).otherwise(0.0).as("vio"))
        vioScores = vioScores.union(rhsVio)
        // lhs cells (single-attr): candidate group's majority rhs
        // matches the tuple's current rhs.
        if (fd.lhs.size == 1) {
          val lhsVio = domains.filter(col("attr") === fd.lhs.head)
            .join(g.select(col(tidC), col("rv")), tidC)
            .join(majority.withColumnRenamed("lv", "v"), "v")
            .select(col(tidC), col("attr"), col("v"),
              when(col("majRv") === col("rv"), 1.0).otherwise(0.0).as("vio"))
          vioScores = vioScores.union(lhsVio)
        }
      }
      val vioAgg = vioScores.groupBy(tidC, "attr", "v").agg(sum("vio").as("vio"))
        .materialized

      val scored = domains
        .join(vioAgg, Seq(tidC, "attr", "v"), "left")
        .withColumn("score",
          lit(WCooc) * col("cooc") / maxCooc +
            lit(WMin) * when(col("v") === col("orig"), 1.0).otherwise(0.0) +
            lit(WVio) * coalesce(col("vio"), lit(0.0)))
      val w = Window.partitionBy(tidC, "attr").orderBy(col("score").desc, col("v"))
      result = scored.withColumn("__rk", row_number().over(w)).filter(col("__rk") === 1)
        .select(col(tidC), col("attr"), col("v"), col("orig")).materialized
      assigned = result.select(col(tidC), col("attr"), col("v").as("cur")).materialized
    }
    result.filter(col("v") =!= col("orig")).select(col(tidC), col("attr"), col("v"))
  }

  /** Full HoloClean-lite run: detect → domains → infer. */
  def run(df: DataFrame, fds: Seq[Fd]): Repairs = {
    val t0 = System.nanoTime()
    val cells = dirtyCells(df, fds).materialized
    val updates =
      if (cells.isEmpty) cells.select(col(tidC), col("attr"), col("orig").as("v"))
      else {
        val domains = coocDomains(df, cells, DomainK).materialized
        infer(df, domains, fds)
      }
    val out = updates.materialized
    Repairs(out, (System.nanoTime() - t0) / 1e9)
  }

  /** DaisyH: HoloClean's inference over Daisy's candidate domains.
    * `daisyDomains`: (tid, attr, v, p, orig) extracted from Daisy's
    * probabilistic state — p plays the role of the statistics score.
    */
  def runDaisyH(df: DataFrame, daisyDomains: DataFrame, fds: Seq[Fd]): Repairs = {
    val t0 = System.nanoTime()
    val domains = daisyDomains.withColumnRenamed("p", "cooc")
    val updates =
      if (domains.isEmpty)
        domains.select(col(tidC), col("attr"), col("v"))
      else infer(df, domains, fds)
    Repairs(updates.materialized, (System.nanoTime() - t0) / 1e9)
  }

  /** DaisyP: blindly pick the most probable Daisy candidate; exact
    * probability ties break pseudo-randomly (hash order), which is as
    * blind as any choice.
    */
  def daisyP(daisyDomains: DataFrame): Repairs = {
    val t0 = System.nanoTime()
    val w = Window.partitionBy(tidC, "attr")
      .orderBy(col("p").desc, pmod(hash(col("v"), col(tidC)), lit(97)), col("v"))
    val updates = daisyDomains
      .withColumn("__rk", row_number().over(w)).filter(col("__rk") === 1)
      .filter(col("v") =!= col("orig"))
      .select(col(tidC), col("attr"), col("v"))
    Repairs(updates.materialized, (System.nanoTime() - t0) / 1e9)
  }

  /** Extracts Daisy's candidate domains from a probabilistic state:
    * (tid, attr, v, p, orig) for every equality candidate of every
    * rule attribute.
    */
  def daisyDomains(state: DataFrame, ruleAttrs: Seq[String]): DataFrame =
    ruleAttrs.map { a =>
      state.filter(ProbData.isDirty(a))
        .select(col(tidC), lit(a).as("attr"),
          explode(col(ProbData.candCol(a))).as("c"), col(a).cast("string").as("orig"))
        .filter(col("c.op") === "=")
        .select(col(tidC), col("attr"), col("c.v").as("v"), col("c.p").as("p"), col("orig"))
    }.reduce(_ union _)

  /** Precision = correct updates / total updates; recall = correct
    * updates / total injected errors (§7 metrics).
    */
  def accuracy(updates: DataFrame, errors: DataFrame): Metrics = {
    val nUpdates = updates.count()
    val nErrors  = errors.count()
    val correct = updates.join(errors, Seq(tidC, "attr"))
      .filter(col("v") === col("truth")).count()
    val p = if (nUpdates == 0) 1.0 else correct.toDouble / nUpdates
    val r = if (nErrors == 0) 1.0 else correct.toDouble / nErrors
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    Metrics(p, r, f1, nUpdates, correct, nErrors)
  }
}
