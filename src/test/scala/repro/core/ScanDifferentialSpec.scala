package repro.core

import org.apache.spark.sql.{Column, DataFrame, ReproCheckpoint, Row}
import org.apache.spark.sql.catalyst.CatalystTypeConverters
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalacheck.Gen
import repro.SeededSpec
import repro.core.ProbData.{CandType, ChkCol, MaterializeOps, TidCol, candCol}
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

/** The interpreted scan ([[ReproCheckpoint.scan]]) against Catalyst's
  * `df.select(cols).collect()` on ScalaCheck-seeded small states, as bags
  * of rows, both from its driver-side collection and from its frame:
  *  - null base values; null, empty and probabilistic sidecars, with
  *    range candidates; tuples checked by the rule or another one;
  *  - states read from a checkpoint, from a projection over one (as
  *    `Daisy.addRule` leaves a state) and from a local relation;
  *  - the columns the session reads: the [[FdGraph]] signature with a
  *    one- and a two-attribute lhs, [[ProbData.valuesExpr]], and answers
  *    filtered by [[ProbData.qualifiesAll]] with `=`, `!=` and range
  *    predicates, by short and long `isin` lists and by [[ProbData.keyIn]],
  *    one filter over another.
  * A filter that evaluates to null drops the row.
  */
class ScanDifferentialSpec extends SeededSpec {
  import ScanDifferentialSpec.Case

  private val seeds = (1L to 48L).toVector
  private val ruleId = "f"

  // Values are numbers as strings, as a range predicate or candidate
  // casts them to double.
  private val value: Gen[String] = Gen.choose(0, 3).map(_.toString)

  /** An equality candidate, possibly of a null value, or a range candidate. */
  private val cand: Gen[Row] = for {
    op <- Gen.frequency(3 -> "=", 1 -> "<", 1 -> ">")
    v <- if (op == "=") Gen.option(value) else value.map(Some(_))
    n <- Gen.choose(1L, 4L)
  } yield Row(v.orNull, op, n / 10.0, "R", n)

  /** A candidate set: null, empty or up to three candidates. */
  private val cands: Gen[Seq[Row]] = Gen.frequency(3 -> Gen.const(null: Seq[Row]), 1 -> Gen.const(Nil),
    3 -> Gen.choose(1, 3).flatMap(Gen.listOfN(_, cand)))

  private val pred: Gen[Pred] = Gen.oneOf(
    Gen.oneOf("=", "!=").flatMap(op => value.map(Pred("a", op, _))),
    Gen.oneOf(Pred.Ops.toSeq).flatMap(op => value.map(Pred("c", op, _))))

  private val caseGen: Gen[Case] = for {
    n <- Gen.choose(1, 16)
    rows <- Gen.listOfN(n, for {
      a <- Gen.option(value); b <- Gen.oneOf("y0", "y1"); c <- Gen.option(value)
      cs <- Gen.listOfN(3, cands)
      chk <- Gen.someOf(ruleId, "g")
    } yield Row.fromSeq(Seq(a.orNull, b, c.orNull) ++ cs :+ chk.toSeq.sorted))
    preds <- Gen.choose(0, 3).flatMap(Gen.listOfN(_, pred))
    members <- Gen.someOf(0L until n.toLong)
  } yield Case(rows.zipWithIndex.map { case (r, i) => Row.fromSeq(i.toLong +: r.toSeq) }, preds, members.toSet)

  private val schema = StructType(Seq(StructField(TidCol, LongType, nullable = false)) ++
    Seq("a", "b", "c").map(StructField(_, StringType)) ++
    Seq("a", "b", "c").map(a => StructField(candCol(a), CandType)) :+
    StructField(ChkCol, ArrayType(StringType)))

  /** The input state, by plan: a checkpoint, a projection that appends the
    * sidecar of `b` to a checkpoint without it, or a local relation.
    */
  private def stateOf(c: Case, seed: Long): DataFrame = {
    val df = spark.createDataFrame(c.rows.asJava, schema)
    seed % 3 match {
      case 0 => df.materialized
      case 1 =>
        val st = df.drop(candCol("b")).materialized
        st.select(st.columns.toSeq.map(col) :+ lit(null).cast(CandType).as(candCol("b")): _*)
      case _ => df
    }
  }

  /** A value as a string that does not depend on the collection classes
    * either side returns.
    */
  private def show(v: Any): String = v match {
    case null => "null"
    case r: Row => r.toSeq.map(show).mkString("(", ",", ")")
    case s: collection.Seq[_] => s.map(show).mkString("[", ",", "]")
    case x => x.toString
  }

  private def bag(rows: Seq[Row]): Seq[String] = rows.map(show).sorted

  /** The kernel's two readings of `cols` over `df` against Catalyst's. */
  private def compare(df: DataFrame, cols: Seq[Column], ctx: String): Unit = {
    val scan = ReproCheckpoint.scan(df, cols)
    val reference = df.select(cols: _*)
    assert(scan.schema == reference.schema, ctx)
    val toRow = CatalystTypeConverters.createToScalaConverter(scan.schema)
    val expected = bag(reference.collect().toSeq)
    assert(bag(scan.collect().toSeq.map(toRow(_).asInstanceOf[Row])) == expected, ctx)
    assert(bag(scan.frame.collect().toSeq) == expected, ctx)
  }

  test("the interpreted scan equals Catalyst's projection on 48 seeded states") {
    // Per seed: rows the answer filter keeps, and rows on which it is null.
    val outcomes = new ConcurrentLinkedQueue[(Long, Long)]()
    forSeeds(seeds) { seed =>
      val c = sample(caseGen, seed)
      val st = stateOf(c, seed)
      val ctx = s"seed $seed, $c"
      val tid = col(TidCol)
      val members = c.members.toSeq
      // A long list becomes a hash set, a short one stays a list.
      val longList = members ++ (100L until 112L)

      for (fd <- Seq(Fd(ruleId, "a", "c"), Fd(ruleId, Seq("a", "b"), "c")))
        compare(st, Seq(FdGraph.baseLhs(fd), FdGraph.baseRhs(fd), Relaxation.lhsValues(st, fd),
          ProbData.valuesExpr(st, fd.rhs), coalesce(ProbData.checkedBy(fd.id), lit(false)),
          FdGraph.dirtyFlag(st, fd.rhs), FdGraph.dirtyLhsFlag(st, fd),
          coalesce(tid.isin(longList: _*), lit(false))), s"$ctx, signature of $fd")

      val answer = ProbData.qualifiesAll(st, c.preds)
      val selected = Seq(tid, col("a"), col("c"), col(candCol("c")), col(ChkCol))
      compare(st.filter(answer), selected, s"$ctx, answer")
      compare(st.filter(answer).filter(tid.isin(members: _*)), selected, s"$ctx, answer ∩ short isin")
      compare(st.filter(tid.isin(longList: _*)).filter(answer), Seq(tid, ProbData.valuesExpr(st, "a")),
        s"$ctx, long isin, then answer")
      compare(st.filter(!ProbData.keyIn(st, tid, c.members.toSet[Any])), Seq(tid, ProbData.valuesExpr(st, "c")),
        s"$ctx, keyIn")
      outcomes.add((st.filter(answer).count(), st.filter(answer.isNull).count()))
    }
    val runs = outcomes.asScala.toSeq
    assert(runs.count(_._1 > 0) >= 10, runs)
    assert(runs.count(_._2 > 0) >= 5, runs)
  }
}

object ScanDifferentialSpec {

  /** One generated input: rows (tid, a, b, c, a__c, b__c, c__c, __chk),
    * the answer's predicates and the member tids.
    */
  final case class Case(rows: Seq[Row], preds: Seq[Pred], members: Set[Long])
}
