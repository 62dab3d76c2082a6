package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.SeededSpec

/** The driver-side DC kernel ([[ThetaJoin.bucketize]],
  * [[ThetaJoin.violationsOf]], [[DcRepair.fixesOf]], [[DcRepair.clean]])
  * against the Spark SQL reference ([[DcReference]]) on ScalaCheck-seeded
  * small tables: one to three atoms over `<`, `<=`, `>`, `>=`, tied
  * values, null axis and non-axis values, p ∈ {1, 4, 9, 64}, a random
  * seen set and `maxFixAtoms` 1 and 2. Bucket statistics, the compared
  * tuple pairs, the violation rows, the fixes and the cleaned state must
  * be equal. The kernel compares whole buckets while the reference keeps
  * the intra-partition hull ranges of Example 4, so equal compared pairs
  * also show that those ranges exclude no point of equi-width buckets.
  */
class DcKernelDifferentialSpec extends SeededSpec {
  import DcKernelDifferentialSpec.Case

  private val seeds = (1L to 40L).toVector

  private val attrs = Seq("x", "y", "z")

  // Few distinct values, so ties are common; fractions, a large and a
  // small magnitude and a negative zero exercise the bounds' rendering.
  private val value: Gen[Option[Double]] = Gen.frequency(
    6 -> Gen.oneOf(0.0, 1.0, 2.0, 3.0, 4.0).map(Some(_)),
    2 -> Gen.oneOf(-1.5, -0.0, 0.25, 1.0e7, 1.5e-5, 123456.789).map(Some(_)),
    1 -> Gen.const(None))

  private val caseGen: Gen[Case] = for {
    n <- Gen.choose(3, 16)
    rows <- Gen.listOfN(n, Gen.listOfN(3, value))
    k <- Gen.choose(1, 3)
    order <- Gen.oneOf(attrs.permutations.toSeq)
    ops <- Gen.listOfN(k, Gen.oneOf(Atom.Ops.toSeq.sorted))
    p <- Gen.oneOf(1, 4, 9, 64)
    seen <- Gen.someOf(0L until n.toLong)
  } yield Case(rows.zipWithIndex.map { case (vs, i) => (i.toLong, vs(0), vs(1), vs(2)) },
    InequalityDc("dc", order.take(k).zip(ops).map { case (a, op) => Atom(a, op) }), p, seen.toSet)

  /** Violation rows (tid1, tid2, dir, a1, a2 per attribute) as a set. */
  private def vioRows(df: DataFrame, dc: InequalityDc): Set[Seq[Any]] =
    ThetaJoin.violationsFrom(df, dc).map(vioRow).toSet
  private def vioRow(v: ThetaJoin.Violation): Seq[Any] =
    Seq(v.tid1, v.tid2, v.dir) ++ v.vals1.toSeq ++ v.vals2.toSeq

  /** (tid, attr) → candidates (v, op, p, w, n) of rows of `DcRepair.fixes`. */
  private def fixRows(df: DataFrame): Map[(Long, String), Seq[Seq[Any]]] =
    df.select(col(ProbData.TidCol), col("attr"), col("cands")).collect().map { r =>
      (r.getLong(0), r.getString(1)) -> r.getSeq[Row](2).map(_.toSeq)
    }.toMap

  /** tid → candidate sets of the DC's attributes and the checked marks. */
  private def stateRows(st: DataFrame, dc: InequalityDc): Map[Long, Seq[Any]] =
    st.select((col(ProbData.TidCol) +: dc.attrs.map(a => col(ProbData.candCol(a))) :+
        col(ProbData.ChkCol)): _*)
      .collect().map(r => r.getLong(0) -> r.toSeq.tail.map {
        case cs: scala.collection.Seq[_] => cs.map { case c: Row => c.toSeq; case x => x }
        case x => x
      }).toMap

  test("the driver-side DC kernel equals the Spark SQL reference") {
    forSeeds(seeds) { seed =>
      val c = sample(caseGen, seed)
      val dc = c.dc
      val ctx = s"seed $seed, $dc, p ${c.p}, seen ${c.seen.toSeq.sorted}, rows ${c.rows}"
      val state = ProbData.init(spark.createDataFrame(c.rows).toDF("__tid", "x", "y", "z"), Seq(dc))

      // Bucketization: the same matrix, and every point in its `__b`.
      val b = ThetaJoin.bucketize(state, dc, c.p)
      val ref = DcReference.bucketize(state, dc, c.p)
      assert((b.lo, b.hi, b.nRanges, b.stats) == (ref.lo, ref.hi, ref.nRanges, ref.stats), ctx)
      val refB = ref.data.filter(col("__b").isNotNull).select(ProbData.TidCol, "__b").collect()
        .map(r => r.getLong(0) -> r.getInt(1)).toMap
      assert(b.bucketOfTid == refB, ctx)
      val pairs = ThetaJoin.candidatePairs(dc, b.stats)

      // Detection: the same compared pairs and the same violation rows.
      val flagged = ref.data.withColumn("__seen", col(ProbData.TidCol).isin(c.seen.toSeq: _*))
      val complete = c.rows.collect {
        case (t, x, y, z) if dc.attrs.forall(a => Map("x" -> x, "y" -> y, "z" -> z)(a).isDefined) => t
      }.toSet
      val refCompared = DcReference.compared(flagged, dc, pairs, ref.stats)
        .select(ProbData.TidCol + "1", ProbData.TidCol + "2").collect()
        .map(r => (r.getLong(0), r.getLong(1))).filter { case (t1, t2) => complete(t1) && complete(t2) }
      val compared = ThetaJoin.compared(b.points, c.seen, pairs).map(x => (x._1, x._3)).toSeq
      assert(compared.sorted == refCompared.toSeq.sorted, ctx)

      val refVios = DcReference.violations(flagged, dc, pairs, ref.stats)
      val vios = ThetaJoin.violationsOf(b.points, c.seen, dc, pairs)
      assert(vios.map(vioRow).toSet == vioRows(refVios, dc), ctx)
      assert(vios.size == vios.map(v => (v.tid1, v.tid2)).distinct.size, ctx)
      assert(vioRows(ThetaJoin.violations(flagged, dc, pairs, b.stats), dc) == vioRows(refVios, dc), ctx)

      // Repair: the same fixes and the same cleaned state.
      val touched = refVios.select(col(ProbData.TidCol + "1").as(ProbData.TidCol))
        .union(refVios.select(col(ProbData.TidCol + "2").as(ProbData.TidCol))).distinct()
      for (m <- Seq(1, 2)) {
        val refFixes = DcReference.fixes(refVios, dc, m)
        assert(fixRows(DcRepair.fixes(refVios, dc, m)) == fixRows(refFixes), s"$ctx, maxFixAtoms $m")
        val expected = stateRows(DcReference.applyFixes(state, refFixes, touched, dc), dc)
        val (cleaned, nTouched) = DcRepair.clean(state, vios, dc, m)
        assert(stateRows(cleaned, dc) == expected, s"$ctx, maxFixAtoms $m")
        assert(nTouched == touched.count(), s"$ctx, maxFixAtoms $m")
      }
    }
  }
}

object DcKernelDifferentialSpec {

  /** One generated input: rows (tid, x, y, z), the DC over some of x, y,
    * z, the theta-join's matrix partitions and the tids already seen.
    */
  final case class Case(rows: Seq[(Long, Option[Double], Option[Double], Option[Double])],
                        dc: InequalityDc, p: Int, seen: Set[Long])
}
