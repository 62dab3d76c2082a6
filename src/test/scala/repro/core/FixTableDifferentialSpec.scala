package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.ArrayData
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalacheck.Gen
import repro.SeededSpec
import repro.core.ProbData.{CandType, ChkCol, MaterializeOps, TidCol, candCol}
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

/** The row-level candidate-apply kernel ([[ProbData.applyFixTable]])
  * against the Catalyst-projection reference ([[FixTableReference]]) on
  * ScalaCheck-seeded small states:
  *  - FD merge keyed by [[FdGraph]] signature, with a one- or
  *    two-attribute lhs and null rhs values, and DC overwrite keyed by
  *    tid;
  *  - fix tables that are empty, that hold keys no tuple has, that fix
  *    only some attributes of a key, and whose keys are marked or not;
  *  - null, empty and probabilistic sidecars, and tuples the rule
  *    already checked;
  *  - states read from a checkpoint, from a projection over one (as
  *    `Daisy.addRule` leaves a state) and from a local relation.
  * Both must give the same schema and the same rows.
  */
class FixTableDifferentialSpec extends SeededSpec {
  import FixTableDifferentialSpec.Case

  private val seeds = (1L to 48L).toVector
  private val ruleId = "f"

  private val cand: Gen[Row] = for {
    v <- Gen.option(Gen.oneOf("x0", "x1", "x2"))
    op <- Gen.frequency(4 -> "=", 1 -> "<", 1 -> ">")
    w <- Gen.oneOf("R", "L", "DC")
    n <- Gen.choose(1L, 4L)
  } yield Row(v.orNull, op, n / 10.0, w, n)

  /** A candidate set: null, empty or up to three candidates. */
  private val cands: Gen[Seq[Row]] = Gen.frequency(3 -> Gen.const(null: Seq[Row]), 1 -> Gen.const(Nil),
    3 -> Gen.choose(1, 3).flatMap(Gen.listOfN(_, cand)))

  private val caseGen: Gen[Case] = for {
    n <- Gen.choose(1, 12)
    rows <- Gen.listOfN(n, for {
      a <- Gen.choose(0, 2); b <- Gen.choose(0, 1); c <- Gen.option(Gen.choose(0, 2))
      cs <- Gen.listOfN(3, cands)
      chk <- Gen.someOf(ruleId, "g")
    } yield Row.fromSeq(Seq(s"a$a", s"b$b", c.map(v => s"c$v").orNull) ++ cs :+ chk.toSeq.sorted))
    keyed <- Gen.someOf(0L until n.toLong)
    fixes <- Gen.listOfN(n + 1, Gen.listOfN(3,
      Gen.frequency(1 -> Gen.const(null: Seq[Row]), 3 -> cands.map(Option(_).getOrElse(Nil)))))
    marks <- Gen.listOfN(n + 1, Gen.oneOf(true, false))
  } yield Case(rows.zipWithIndex.map { case (r, i) => Row.fromSeq(i.toLong +: r.toSeq) },
    keyed.toSet, fixes, marks)

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

  /** The rule under test: an FD with lhs `a` or `(a, b)`, or a DC over `(a, c)`. */
  private def ruleOf(seed: Long): Rule = (seed / 3) % 3 match {
    case 0 => Fd(ruleId, "a", "c")
    case 1 => Fd(ruleId, Seq("a", "b"), "c")
    case _ => InequalityDc(ruleId, Seq(Atom("a", "<"), Atom("c", ">")))
  }

  /** The fix table: every fourth seed's table is empty, and the others
    * hold the keys of the keyed tuples and one no tuple has, each with
    * its fixes and its mark.
    */
  private def fixTable(keys: Seq[InternalRow], absent: InternalRow, c: Case, seed: Long,
                       width: Int): Map[InternalRow, (Seq[ArrayData], Boolean)] =
    if (seed % 4 == 0) Map.empty
    else (keys.distinct :+ absent).lazyZip(c.fixes).lazyZip(c.marks).map { case (k, fs, m) =>
      k -> (fs.take(width).map(ProbData.toCatalyst), m)
    }.toMap

  /** The input state and the kernel's and the reference's results on one seed. */
  private def results(seed: Long): (DataFrame, DataFrame, DataFrame) = {
    val c = sample(caseGen, seed)
    val st = stateOf(c, seed)
    ruleOf(seed) match {
      case fd: Fd =>
        // As in FdRepair: the keyed tuples' signatures, with the keyed
        // tuples as the graph's members, and one of a tuple not in the state.
        val g = FdGraph.collect(st, fd, col(TidCol).isin(c.keyed.toSeq: _*))
        val none = spark.createDataFrame(Seq(Row(-1L, "none", "b0", null, null, null, null, Nil)).asJava, schema)
        val absent = FdGraph.collect(none, fd, lit(true)).sigs.head.key
        val table = fixTable(g.sigs.filter(_.in).map(_.key), absent, c, seed, fd.attrs.size)
        (st, ProbData.applyFixTable(st, g.sigCols, table, fd.lhs :+ fd.rhs, fd.id)(ProbData.mergeCands),
          FixTableReference.applyFixTable(st, g.sigCols, table, fd.lhs :+ fd.rhs, fd.id)(ProbData.mergeCandSeqs))
      case dc: InequalityDc =>
        // As in DcRepair: every tuple's key is its tid.
        val key = Seq(col(TidCol))
        val table = fixTable(c.keyed.toSeq.sorted.map(InternalRow(_)), InternalRow(-1L), c, seed, dc.attrs.size)
        (st, ProbData.applyFixTable(st, key, table, dc.attrs, dc.id)((_, fix) => fix),
          FixTableReference.applyFixTable(st, key, table, dc.attrs, dc.id)((_, fix) => fix))
    }
  }

  private def byTid(df: DataFrame): Map[Long, Row] = df.collect().map(r => r.getLong(0) -> r).toMap

  test("the row-level kernel equals the Catalyst projection on 48 seeded states") {
    // Per seed: the rule, and whether the kernel changed a sidecar and a
    // checked mark of its input, so that the seeds are seen to exercise both.
    val changed = new ConcurrentLinkedQueue[(Rule, Boolean, Boolean)]()
    forSeeds(seeds) { seed =>
      val (input, kernel, reference) = results(seed)
      val ctx = s"seed $seed, ${ruleOf(seed)}"
      assert(kernel.schema == reference.schema, ctx)
      val (before, after) = (byTid(input), byTid(kernel))
      assert(after == byTid(reference), ctx)
      def differ(cols: Seq[String]) =
        after.exists { case (t, r) => cols.exists(c => r.getAs[Any](c) != before(t).getAs[Any](c)) }
      changed.add((ruleOf(seed), differ(kernel.columns.toSeq.filter(_.endsWith("__c"))), differ(Seq(ChkCol))))
    }
    val runs = changed.asScala.toSeq
    assert(runs.count { case (r, cands, _) => r.isInstanceOf[Fd] && cands } >= 5, runs)
    assert(runs.count { case (r, cands, _) => r.isInstanceOf[InequalityDc] && cands } >= 3, runs)
    assert(runs.count(_._3) >= 10, runs)
  }
}

object FixTableDifferentialSpec {

  /** One generated input: rows (tid, a, b, c, a__c, b__c, c__c, __chk),
    * the tids whose key is in the fix table, and candidate sets and marks
    * for the fix table's keys in order (null: no fix for that attribute).
    */
  final case class Case(rows: Seq[Row], keyed: Set[Long], fixes: Seq[Seq[Seq[Row]]], marks: Seq[Boolean])
}
