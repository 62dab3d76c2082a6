package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.SeededSpec

/** The value-graph kernel against the DataFrame reference
  * ([[FdReference]]) on ScalaCheck-seeded small tables: single- and
  * two-attribute lhs, cells already made probabilistic by an earlier
  * rule, tuples already checked by an earlier query, and answers given
  * as tid sets, rhs filters and lhs filters.
  */
class FdKernelDifferentialSpec extends SeededSpec {
  import FdKernelDifferentialSpec.Case

  private val seeds = (1L to 50L).toVector

  // The reference shuffles a dozen-row table many times per query; one
  // shuffle partition keeps its tasks from dominating the suite's time,
  // and the seeds run concurrently to overlap its per-job planning.
  override protected def settings: Seq[(String, String)] = Seq("spark.sql.shuffle.partitions" -> "1")

  private val caseGen: Gen[Case] = for {
    n <- Gen.choose(3, 12)
    rows <- Gen.listOfN(n, for {
      a <- Gen.choose(0, 3); b <- Gen.choose(0, 2); c <- Gen.choose(0, 5)
    } yield (s"a$a", s"b$b", s"c$c"))
    first <- Gen.choose(0, 2).flatMap(k => Gen.pick(k, 0L until n.toLong))
    answerKind <- Gen.choose(0, 2)
    value <- Gen.choose(0, 2)
    subset <- Gen.someOf(0L until n.toLong)
    maxIter <- Gen.oneOf(1, 2, 20)
  } yield Case(rows.zipWithIndex.map { case ((a, b, c), i) => (i.toLong, a, b, c) },
    first.toSeq, answerKind, value, subset.toSeq, maxIter)

  /** The rule under test: lhs `a` on odd seeds, `(a, b)` on even ones. */
  private def fdOf(seed: Long): Fd =
    if (seed % 2 == 0) Fd("f", Seq("a", "b"), "c") else Fd("f", "a", "c")

  /** An earlier rule making the lhs `a` (seed ≡ 1 mod 3) or the rhs `c`
    * (seed ≡ 2 mod 3) probabilistic, or none.
    */
  private def priorOf(seed: Long): Option[Fd] = seed % 3 match {
    case 1 => Some(Fd("p", "b", "a"))
    case 2 => Some(Fd("p", "b", "c"))
    case _ => None
  }

  /** The input state of the compared query and its answer tids. */
  private def input(seed: Long): (DataFrame, DataFrame, Fd, Int) = {
    val c = sample(caseGen, seed)
    val fd = fdOf(seed)
    val prior = priorOf(seed)
    var st = ProbData.init(spark.createDataFrame(c.rows).toDF("__tid", "a", "b", "c"),
      fd +: prior.toSeq)
    for (p <- prior) st = FdRepair.clean(FdGraph.collect(st, p, lit(true)), 0)._1
    if (c.first.nonEmpty)
      st = TestData.cleanSelect(st, tidFrame(c.first), fd, maxIter = 1)._1
    val answer = c.answerKind match {
      case 0 => tidFrame(c.subset)
      case 1 => st.filter(ProbData.qualifies(st, Pred("c", "=", s"c${c.value}"))).select("__tid")
      case _ => st.filter(ProbData.qualifies(st, Pred("a", "=", s"a${c.value}"))).select("__tid")
    }
    (st, answer, fd, c.maxIter)
  }

  private def tidFrame(tids: Seq[Long]): DataFrame =
    spark.createDataFrame(tids.map(Tuple1(_))).toDF("__tid")

  private def tids(df: DataFrame): Seq[Long] = TestData.tids(df)

  /** tid → canonical candidate sets of `cols` (rounded p, sorted). */
  private def canon(df: DataFrame, cols: Seq[String]): Map[Long, Seq[Seq[Row]]] =
    df.select(col("__tid") +: cols.map(c =>
        when(col(c).isNotNull, array_sort(transform(col(c), x => struct(
          x.getField("v"), x.getField("op"), round(x.getField("p"), 6), x.getField("w"),
          x.getField("n"))))).as(c)): _*)
      .collect().map(r => r.getLong(0) -> cols.indices.map(i => r.getSeq[Row](i + 1)).toSeq).toMap

  private def canonState(st: DataFrame): Map[Long, Seq[Seq[Row]]] = {
    val withChk = st.withColumn("__chkSorted", array_sort(col(ProbData.ChkCol)))
    val cands = canon(withChk, Seq("a", "b", "c").filter(ProbData.hasCands(st, _)).map(ProbData.candCol))
    val chk = withChk.select("__tid", "__chkSorted").collect()
      .map(r => r.getLong(0) -> r.getSeq[String](1)).toMap
    cands.map { case (t, cs) => t -> (cs :+ chk(t).map(Row(_))) }
  }

  test("kernel clean_σ equals the DataFrame reference on 50 seeded tables") {
    forSeeds(seeds) { seed =>
      val (st, answer, fd, maxIter) = input(seed)
      val (refState, refRelaxed, refFixes) = FdReference.cleanSelectFd(st, answer, fd, maxIter)
      val (state, relaxed, fixes) = TestData.cleanSelect(st, answer, fd, maxIter)
      val ctx = s"seed $seed, fd ${fd.lhs.mkString(",")} -> ${fd.rhs}, maxIter $maxIter"

      assert(tids(relaxed.tids) == tids(refRelaxed.tids), ctx)
      assert(tids(relaxed.extraTids) == tids(refRelaxed.extraTids), ctx)
      assert(relaxed.iterations == refRelaxed.iterations, ctx)
      assert(relaxed.extraCount == refRelaxed.extraCount, ctx)
      assert(fixes.nDirty == refFixes.nDirty, ctx)
      assert(fixes.nDirtyGroups == refFixes.nDirtyGroups, ctx)
      val fixCols = fd.attrs.map(TestData.fixCol)
      assert(canon(FdReference.fixTable(st, fd, FdGraph.memberOf(answer), fixes), fixCols) ==
        canon(refFixes.fixes, fixCols), ctx)
      assert(canonState(state) == canonState(refState), ctx)
    }
  }

  test("Lemma 1: rhs-filter fixes with maxIter = 1 equal those of the full closure") {
    forSeeds(seeds) { seed =>
      val (st, _, fd, _) = input(seed)
      val v = s"c${sample(caseGen, seed).value}"
      val answer = st.filter(ProbData.qualifies(st, Pred("c", "=", v))).select("__tid")
      val answerTids = tids(answer).toSet
      def answerFixes(maxIter: Int) = {
        val fixes = TestData.cleanSelect(st, answer, fd, maxIter)._3
        canon(FdReference.fixTable(st, fd, FdGraph.memberOf(answer), fixes), fd.attrs.map(TestData.fixCol))
          .filter { case (t, _) => answerTids(t) }
      }
      assert(answerFixes(1) == answerFixes(20), s"seed $seed")
    }
  }
}

object FdKernelDifferentialSpec {

  /** One generated input: rows (tid, a, b, c), the answer of an earlier
    * one-iteration query of the same rule (up to two tuples, so that
    * part of the table stays unchecked), and the compared query.
    */
  final case class Case(rows: Seq[(Long, String, String, String)], first: Seq[Long],
                        answerKind: Int, value: Int, subset: Seq[Long], maxIter: Int)
}
