package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.SeededSpec
import repro.offline.OfflineCleaner

/** Daisy's DC clean path against the offline cleaner on ScalaCheck-seeded
  * small numeric tables: a two- or three-atom inequality DC, on some
  * seeds an FD over other attributes, and a random workload of band
  * queries that together cover the table. Each workload runs with
  * Algorithm 2 never switching (`dcThreshold` 1.1) and with the default
  * threshold; either way the final DC candidate sets and checked marks
  * must equal the offline cleaner's, and re-running a query of the
  * covered workload must leave the state unchanged.
  */
class DcPathDifferentialSpec extends SeededSpec {
  import DcPathDifferentialSpec.Case

  private val seeds = (1L to 20L).toVector

  private val numeric = Seq("x", "y", "z")

  private val caseGen: Gen[Case] = for {
    n <- Gen.choose(4, 14)
    rows <- Gen.listOfN(n, for {
      x <- Gen.choose(0, 9); y <- Gen.choose(0, 9); z <- Gen.choose(0, 9)
      a <- Gen.choose(0, 2); b <- Gen.choose(0, 2)
    } yield (x.toDouble, y.toDouble, z.toDouble, s"a$a", s"b$b"))
    k <- Gen.choose(2, 3)
    order <- Gen.oneOf(numeric.permutations.toSeq)
    ops <- Gen.listOfN(k, Gen.oneOf(Atom.Ops.toSeq.sorted))
    withFd <- Gen.prob(0.5)
    band <- Gen.oneOf(order.take(k))
    cuts <- Gen.choose(1, 2).flatMap(c => Gen.pick(c, 1 to 9))
    bandOrder <- Gen.oneOf((0 to cuts.size).permutations.toSeq)
    rerun <- Gen.choose(0, cuts.size)
    p <- Gen.oneOf(1, 4, 9, 64)
  } yield Case(rows.zipWithIndex.map { case ((x, y, z, a, b), i) => (i.toLong, x, y, z, a, b) },
    InequalityDc("dc", order.take(k).zip(ops).map { case (at, op) => Atom(at, op) }),
    withFd, band, cuts.sorted.toSeq, bandOrder, rerun, p)

  private val fd = Fd("fd", "a", "b")

  /** The band queries in workload order; together they cover the table. */
  private def queries(c: Case): Seq[QuerySpec] = {
    val bounds = None +: c.cuts.map(Some(_)) :+ None
    val select = c.dc.attrs ++ (if (c.withFd) fd.attrs else Nil)
    c.bandOrder.map { i =>
      QuerySpec("t", select = select, where =
        bounds(i).map(lo => Pred(c.band, ">=", lo.toString)).toSeq ++
          bounds(i + 1).map(hi => Pred(c.band, "<", hi.toString)))
    }
  }

  /** tid → canonical candidate sets of `attrs` and the value of `marks`. */
  private def canon(st: DataFrame, attrs: Seq[String], marks: Column): Map[Long, Seq[Any]] =
    attrs.foldLeft(st)((df, a) => ProbData.canonCands(df, a))
      .select((col(ProbData.TidCol) +: attrs.map(a => col(ProbData.candCol(a))) :+ marks): _*)
      .collect().map(r => r.getLong(0) -> r.toSeq.tail).toMap

  test("Daisy's DC state equals the offline cleaner's after covering band workloads") {
    forSeeds(seeds) { seed =>
      val c = sample(caseGen, seed)
      val df = spark.createDataFrame(c.rows).toDF("__tid", "x", "y", "z", "a", "b")
      val rules = c.dc +: (if (c.withFd) Seq(fd) else Nil)
      val attrs = rules.flatMap(_.attrs)
      val offline = OfflineCleaner.run(df, rules, dcPartitions = c.p).state
      val dcMarks = ProbData.checkedBy(c.dc.id)
      val expected = canon(offline, attrs, dcMarks)
      val qs = queries(c)
      for (threshold <- Seq(1.1, DaisyOptions().dcThreshold)) {
        val ctx = s"seed $seed, ${c.dc}, fd ${c.withFd}, band ${c.band} at ${c.cuts}, " +
          s"order ${c.bandOrder}, p ${c.p}, dcThreshold $threshold"
        val d = Daisy.single(spark, "t", df, rules,
          DaisyOptions(dcThreshold = threshold, dcPartitions = c.p))
        val decisions = qs.flatMap { q => d.execute(q); d.lastReport.perRule.flatMap(_.dcDecision) }
        assert(decisions.size == qs.size, ctx)
        if (threshold > 1.0) assert(decisions.forall(!_.fullCleaning), ctx)
        assert(canon(d.state("t"), attrs, dcMarks) == expected, ctx)

        val allMarks = array_sort(col(ProbData.ChkCol))
        val before = canon(d.state("t"), attrs, allMarks)
        d.execute(qs(c.rerun))
        assert(canon(d.state("t"), attrs, allMarks) == before, s"$ctx, re-run of query ${c.rerun}")
      }
    }
  }
}

object DcPathDifferentialSpec {

  /** One generated input: rows (tid, x, y, z, a, b), the DC over some of
    * x, y, z, whether the FD a → b joins it, the band attribute and its
    * cut points, the order in which the bands are queried, the query
    * run again at the end, and the theta-join's matrix partitions.
    */
  final case class Case(rows: Seq[(Long, Double, Double, Double, String, String)],
                        dc: InequalityDc, withFd: Boolean, band: String, cuts: Seq[Int],
                        bandOrder: Seq[Int], rerun: Int, p: Int)
}
