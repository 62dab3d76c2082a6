package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import org.scalacheck.Gen
import repro.SeededSpec
import scala.jdk.CollectionConverters._

/** The lookup joins of `clean_⋈` ([[CleanOps.probEquiJoin]],
  * [[CleanOps.incrementalJoin]]) against the shuffle-join reference
  * ([[JoinReference]]) on ScalaCheck-seeded small states. A key cell holds
  * zero to three candidates: equality candidates (repeated values, values
  * shared with several partners, null values) and `<`/`>` range
  * candidates, over a base value that may be null; the candidate column
  * is null, empty or absent. The right key has the left key's name on
  * some seeds, and the right side shares a plain column with the left
  * one, so the right side's columns are renamed. Results are compared as
  * bags of rows, with the same columns in the same order.
  */
class JoinDifferentialSpec extends SeededSpec {
  import JoinDifferentialSpec._

  private val seeds = (1L to 40L).toVector

  private val keyVals = Seq("k0", "k1", "k2", "k3")

  private val cand: Gen[(String, String)] = Gen.frequency(
    6 -> Gen.oneOf(keyVals).map(v => (v, "=")),
    1 -> Gen.const((null, "=")),
    2 -> Gen.zip(Gen.oneOf(keyVals), Gen.oneOf("<", ">")))

  private val cell: Gen[Cell] = for {
    base <- Gen.frequency(5 -> Gen.oneOf(keyVals), 1 -> Gen.const(null))
    k <- Gen.choose(0, 3)
    cands <- Gen.listOfN(k, cand)
    nullCands <- Gen.prob(0.5)
    x <- Gen.oneOf("x0", "x1")
    checked <- Gen.prob(0.3)
  } yield Cell(base, if (k == 0 && nullCands) None else Some(cands), x, checked)

  private val caseGen: Gen[Case] = for {
    nl <- Gen.choose(0, 8)
    left <- Gen.listOfN(nl, cell)
    leftCands <- Gen.prob(0.8)
    nr <- Gen.choose(0, 8)
    right <- Gen.listOfN(nr, cell)
    rightKey <- Gen.oneOf("k", "rk")
    rightCands <- Gen.prob(0.8)
    changed <- Gen.listOfN(nr, cell)
    extra <- Gen.someOf(0L until nr.toLong)
  } yield Case(left, leftCands, right, rightKey, rightCands, changed, extra.toSet)

  private val chkType = ArrayType(StringType)

  /** A state of `cells` keyed by `key`; the right side has a `y` column. */
  private def state(cells: Seq[Cell], key: String, withCands: Boolean, right: Boolean): DataFrame = {
    val schema = StructType(Seq(StructField(ProbData.TidCol, LongType), StructField(key, StringType)) ++
      (if (withCands) Seq(StructField(ProbData.candCol(key), ProbData.CandType)) else Nil) ++
      Seq(StructField("x", StringType)) ++
      (if (right) Seq(StructField("y", StringType)) else Nil) :+
      StructField(ProbData.ChkCol, chkType))
    val rows = cells.zipWithIndex.map { case (c, i) =>
      val cands = c.cands.map(_.map { case (v, op) => Row(v, op, 1.0 / c.cands.get.size, "R", 1L) }).orNull
      Row.fromSeq(Seq(i.toLong, c.base) ++ (if (withCands) Seq(cands) else Nil) ++ Seq(c.x) ++
        (if (right) Seq(s"y$i") else Nil) :+ (if (c.checked) Seq("r") else Seq.empty[String]))
    }
    spark.createDataFrame(rows.asJava, schema)
  }

  private def bag(df: DataFrame): (Seq[String], Seq[String]) =
    (df.columns.toSeq, df.collect().map(_.toString).sorted.toSeq)

  test("the broadcast joins of clean_⋈ equal the shuffle-join reference") {
    forSeeds(seeds) { seed =>
      val c = sample(caseGen, seed)
      val ctx = s"seed $seed, $c"
      val left = state(c.left, "k", c.leftCands, right = false)
      val right = state(c.right, c.rightKey, c.rightCands, right = true)
      val joined = JoinReference.probEquiJoin(left, right, "k", c.rightKey)
      assert(bag(CleanOps.probEquiJoin(left, right, "k", c.rightKey)) == bag(joined), ctx)

      val extra = state(c.changed, c.rightKey, c.rightCands, right = true)
        .filter(col(ProbData.TidCol).isin(c.extra.toSeq: _*))
      assert(bag(CleanOps.incrementalJoin(joined, left, extra, "k", c.rightKey)) ==
        bag(JoinReference.incrementalJoin(joined, left, extra, "k", c.rightKey)), ctx)
    }
  }
}

object JoinDifferentialSpec {

  /** One key cell and its row: the base key value, the candidates as
    * (value, op) (`None` for a null candidate column), a plain column
    * and whether the tuple is checked.
    */
  final case class Cell(base: String, cands: Option[Seq[(String, String)]], x: String, checked: Boolean)

  /** One generated input: the left and right states, whether each key
    * has a candidate column, the right key's name, the right tuples after
    * a cleaning step and the tids of them that are re-joined.
    */
  final case class Case(left: Seq[Cell], leftCands: Boolean, right: Seq[Cell], rightKey: String,
                        rightCands: Boolean, changed: Seq[Cell], extra: Set[Long])
}
