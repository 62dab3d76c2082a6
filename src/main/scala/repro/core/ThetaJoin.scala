package repro.core

import org.apache.spark.sql.{Column, DataFrame, ReproCheckpoint, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.SQLOrderingUtil
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Partitioned theta-join for DC error detection (§4.2).
  *
  * Follows the Okcan-Riedewald matrix mapping the paper adopts: the
  * cartesian product of the dataset with itself is a matrix whose axes
  * are split into √p value ranges on the first atom's attribute. Only
  * the upper-triangle bucket pairs are checked (symmetric pairs are
  * pruned) and a bucket pair is checked at all only if every atom of
  * the DC can hold between the buckets' value boundaries — the
  * partition-level pruning of Example 4. Within a bucket pair every
  * tuple pair is compared: with equi-width axis buckets, tightening a
  * side to the axis range that can violate with its partner keeps the
  * whole bucket, and pruning on the other atoms' bounds is not done.
  *
  * [[bucketize]] collects the DC attributes of every tuple to the
  * driver in one Spark job (with an answer flag for
  * [[bucketizeWithAnswer]]); the matrix is then joined on the driver
  * ([[violationsOf]]), so the driver holds one [[Point]] per tuple with
  * a non-null axis value plus the violation pairs found.
  * Violations are reported as *unordered* tid pairs (tid1 < tid2) with
  * the orientation that violates recorded, so each conflicting pair is
  * found exactly once. Values compare as Spark SQL compares doubles.
  */
object ThetaJoin {

  private val tidC = ProbData.TidCol

  /** Per-bucket statistics: value boundaries of every DC attribute. */
  final case class BucketStat(idx: Int, lo: Double, hi: Double, count: Long,
                              bounds: Map[String, (Double, Double)])

  /** A tuple with a non-null axis value: its tid, its bucket and its DC
    * attribute values in `dc.attrs` order, `None` when one is null. Every
    * DC attribute is compared by some atom and a comparison with null
    * never holds, so a tuple without values violates nothing.
    */
  final case class Point(tid: Long, b: Int, vals: Option[Array[Double]])

  /** One violating pair, tid1 < tid2: `dir` = "12", "21" or "both" says
    * which orientation violates; `vals1`/`vals2` are the tuples' DC
    * attribute values in `dc.attrs` order.
    */
  final case class Violation(tid1: Long, tid2: Long, dir: String,
                             vals1: Array[Double], vals2: Array[Double])

  /** Result of bucketizing: stats, the points, and the input with a `__b` column. */
  final case class Bucketized(data: DataFrame, stats: Seq[BucketStat], points: IndexedSeq[Point],
                              axis: String, lo: Double, hi: Double, nRanges: Int) {
    def width: Double = if (hi > lo) (hi - lo) / nRanges else 1.0

    /** The equi-width range of axis value `v`. */
    def bucketOf(v: Double): Int =
      math.min(nRanges - 1L, math.max(0L, math.floor((v - lo) / width).toLong)).toInt

    /** The `__b` of a tuple of any state of the bucketized relation:
      * [[bucketOf]] its axis value, null for a null axis value.
      */
    def bucket: Column = {
      val v = col(axis).cast("double")
      when(v.isNotNull,
        least(lit(nRanges - 1), greatest(lit(0), floor((v - lit(lo)) / lit(width)).cast("int"))))
    }

    /** The bucket of every point's tid. */
    lazy val bucketOfTid: Map[Long, Int] = points.iterator.map(p => p.tid -> p.b).toMap
  }

  private val sqlOrder: Ordering[Double] = (x: Double, y: Double) => SQLOrderingUtil.compareDoubles(x, y)

  /** The DC attributes cast to double. */
  private def attrCols(dc: InequalityDc): Seq[Column] = dc.attrs.map(a => col(a).cast("double").as(a))

  /** The DC attribute values of `r` from column `from` on, `None` for
    * null. A negative zero reads as 0.0, as Spark SQL's grouping
    * normalizes it; the two compare equal anyway.
    */
  private def valuesOf(r: InternalRow, from: Int, n: Int): IndexedSeq[Option[Double]] =
    (from until from + n).map(i => if (r.isNullAt(i)) None else Some(r.getDouble(i) + 0.0))

  private def pointOf(tid: Long, b: Int, vs: IndexedSeq[Option[Double]]): Point =
    Point(tid, b, Option.when(vs.forall(_.isDefined))(vs.map(_.get).toArray))

  /** Splits the dataset into √p equi-width ranges on the first atom's
    * attribute (the matrix axis) and collects per-bucket boundaries of
    * every DC attribute, from one collection of the DC attributes of
    * every tuple. A tuple whose axis value is null cannot satisfy the
    * first atom, so it gets no bucket (`__b` null) and no point; an
    * empty table or an all-null axis gives no buckets at all. A bucket without a value of an attribute gets the
    * bounds (0, 0) for it; none of its tuples can violate, so they only
    * feed Algorithm 2's estimate.
    */
  def bucketize(df: DataFrame, dc: InequalityDc, p: Int): Bucketized =
    bucketizeWithAnswer(df, dc, p, lit(false))._1

  /** [[bucketize]] and the tids of the tuples satisfying `answer`, from
    * one collection of (tid, DC attributes, answer flag) over the whole
    * relation. The answer keeps its tuples with a null axis value: they
    * have no point, but they count in the answer's size.
    */
  def bucketizeWithAnswer(df: DataFrame, dc: InequalityDc, p: Int,
                          answer: Column): (Bucketized, Seq[Long]) = {
    val axis = dc.atoms.head.attr
    val nAttrs = dc.attrs.size
    val nRanges = math.max(1, math.ceil(math.sqrt(p.toDouble)).toInt)
    val collected = ReproCheckpoint.scan(df, (col(tidC) +: attrCols(dc)) :+ coalesce(answer, lit(false))).collect()
    val answerTids = collected.toSeq.collect { case r if r.getBoolean(1 + nAttrs) => r.getLong(0) }
    val rows = collected.filter(r => !r.isNullAt(1 + dc.attrs.indexOf(axis)))
    val vals = rows.map(valuesOf(_, 1, nAttrs))
    val axisVals = vals.map(_(dc.attrs.indexOf(axis)).get)
    val (lo, hi) = if (rows.isEmpty) (0.0, 0.0) else (axisVals.min(sqlOrder), axisVals.max(sqlOrder))
    val shape = Bucketized(df, Nil, Vector.empty, axis, lo, hi, nRanges)
    val points = rows.indices.map(i => pointOf(rows(i).getLong(0), shape.bucketOf(axisVals(i)), vals(i)))

    val stats = points.indices.groupBy(points(_).b).toSeq.sortBy(_._1).map { case (b, is) =>
      BucketStat(b, lo + b * shape.width, lo + (b + 1) * shape.width, is.size.toLong,
        dc.attrs.indices.map { k =>
          val xs = is.flatMap(vals(_)(k))
          dc.attrs(k) -> (if (xs.isEmpty) (0.0, 0.0) else (xs.min(sqlOrder), xs.max(sqlOrder)))
        }.toMap)
    }
    (shape.copy(data = df.withColumn("__b", shape.bucket), stats = stats, points = points), answerTids)
  }

  /** True iff atom `t1.a op t2.a` can hold between value intervals
    * (lo1,hi1) of the t1-side and (lo2,hi2) of the t2-side.
    */
  private def atomPossible(a: Atom, lo1: Double, hi1: Double, lo2: Double, hi2: Double): Boolean =
    a.op match {
      case "<"  => lo1 < hi2
      case "<=" => lo1 <= hi2
      case ">"  => hi1 > lo2
      case ">=" => hi1 >= lo2
    }

  /** True iff an ordered violation (t1 from bucket s1, t2 from s2) is
    * possible given the bucket boundaries of every atom attribute.
    */
  def orientationPossible(dc: InequalityDc, s1: BucketStat, s2: BucketStat): Boolean =
    dc.atoms.forall { at =>
      val (l1, h1) = s1.bounds(at.attr); val (l2, h2) = s2.bounds(at.attr)
      atomPossible(at, l1, h1, l2, h2)
    }

  /** Candidate unordered bucket pairs (i ≤ j) that may contain a
    * violation in either orientation — everything else is pruned.
    */
  def candidatePairs(dc: InequalityDc, stats: Seq[BucketStat]): Seq[(Int, Int)] = {
    val byIdx = stats.map(s => s.idx -> s).toMap
    for {
      i <- stats.map(_.idx); j <- stats.map(_.idx) if i <= j
      si = byIdx(i); sj = byIdx(j)
      if orientationPossible(dc, si, sj) || orientationPossible(dc, sj, si)
    } yield (i, j)
  }

  /** The tuple pairs of the matrix that [[violationsOf]] compares, as
    * (tid1, values1, tid2, values2): per bucket pair of `pairs`, the
    * points of the two buckets, and a pair is compared unless both tuples
    * were `seen` — the incremental matrix subset of §4.2: result × unseen
    * plus result × result, never seen × seen again. Distinct bucket pairs
    * see each unordered tuple pair once; within a diagonal bucket the tid
    * order dedupes. Points without values are left out: they violate
    * nothing.
    */
  private[core] def compared(points: Iterable[Point], seen: Long => Boolean,
                             pairs: Seq[(Int, Int)]): Iterator[(Long, Array[Double], Long, Array[Double])] = {
    val byBucket = points.collect { case Point(t, b, Some(vs)) => (b, (t, vs)) }
      .groupMap(_._1)(_._2).view.mapValues(_.toArray).toMap
    def side(b: Int) = byBucket.getOrElse(b, Array.empty[(Long, Array[Double])])
    for {
      (i, j) <- pairs.iterator
      right = side(j)
      (t1, v1) <- side(i).iterator
      s1 = seen(t1)
      (t2, v2) <- right.iterator if (i < j || t1 < t2) && !(s1 && seen(t2))
    } yield (t1, v1, t2, v2)
  }

  /** The driver-side theta-join: every violating pair among the
    * [[compared]] tuple pairs, once.
    */
  def violationsOf(points: Iterable[Point], seen: Long => Boolean, dc: InequalityDc,
                   pairs: Seq[(Int, Int)]): Seq[Violation] = {
    val out = mutable.LinkedHashMap[(Long, Long), Violation]()
    for ((t1, v1, t2, v2) <- compared(points, seen, pairs)) {
      val (v12, v21) = (dc.violates(v1, v2), dc.violates(v2, v1))
      if (v12 || v21) {
        val dir = if (v12 && v21) "both" else if (v12) "12" else "21"
        // Canonical orientation: tid1 < tid2, with dir/value sides swapped.
        val v =
          if (t1 <= t2) Violation(t1, t2, dir, v1, v2)
          else Violation(t2, t1, if (dir == "12") "21" else if (dir == "21") "12" else dir, v2, v1)
        out.getOrElseUpdate((v.tid1, v.tid2), v)
      }
    }
    out.values.toSeq
  }

  /** `vs` as a local DataFrame of rows (tid1, tid2, dir, a1, a2 per DC attribute a). */
  private def violationsDf(spark: SparkSession, dc: InequalityDc, vs: Seq[Violation]): DataFrame = {
    val schema = StructType(Seq(StructField(tidC + "1", LongType), StructField(tidC + "2", LongType),
      StructField("dir", StringType)) ++
      dc.attrs.flatMap(a => Seq(StructField(a + "1", DoubleType), StructField(a + "2", DoubleType))))
    spark.createDataFrame(vs.map(v => Row.fromSeq(Seq(v.tid1, v.tid2, v.dir) ++
      dc.attrs.indices.flatMap(k => Seq(v.vals1(k), v.vals2(k))))).asJava, schema)
  }

  /** The violations of rows shaped like [[violations]]' result. */
  private[core] def violationsFrom(df: DataFrame, dc: InequalityDc): Seq[Violation] = {
    val n = dc.attrs.size
    df.select((Seq(col(tidC + "1"), col(tidC + "2"), col("dir")) ++
        dc.attrs.map(a => col(a + "1")) ++ dc.attrs.map(a => col(a + "2"))): _*)
      .collect().toSeq.map(r => Violation(r.getLong(0), r.getLong(1), r.getString(2),
        (3 until 3 + n).map(r.getDouble).toArray, (3 + n until 3 + 2 * n).map(r.getDouble).toArray))
  }

  /** [[violationsOf]] over a bucketized DataFrame: `df` must carry `__b`
    * (from [[bucketize]]) and may carry a `__seen` boolean (a null one
    * counts as seen). Returns the rows of [[violationsDf]]. `stats` is
    * not read: `pairs` alone decides which buckets are compared.
    */
  def violations(df: DataFrame, dc: InequalityDc, pairs: Seq[(Int, Int)],
                 stats: Seq[BucketStat]): DataFrame = {
    val seenCol = if (df.columns.contains("__seen")) coalesce(col("__seen"), lit(true)) else lit(false)
    val rows = ReproCheckpoint.scan(df.filter(col("__b").isNotNull),
      Seq(col(tidC), col("__b"), seenCol) ++ attrCols(dc)).collect()
    val seen = rows.collect { case r if r.getBoolean(2) => r.getLong(0) }.toSet
    val points = rows.map(r => pointOf(r.getLong(0), r.getInt(1), valuesOf(r, 3, dc.attrs.size)))
    violationsDf(df.sparkSession, dc, violationsOf(points, seen, dc, pairs))
  }

  // ---------------------------------------------------------------------
  // Algorithm 2: Estimate_Errors + accuracy / support decision.
  // ---------------------------------------------------------------------

  /** P(v1 op v2) for v1 ~ U(a,b), v2 ~ U(c,d) — point intervals are
    * handled as atoms at the boundary. This is the per-atom conflict
    * probability behind the boundary-overlap estimate of Algorithm 2:
    * fully overlapping ranges give ~1/2, disjoint ranges give 0 or 1
    * depending on the direction.
    */
  private[core] def atomProb(op: String, a: Double, b: Double, c: Double, d: Double): Double = {
    def f2(x: Double): Double =
      if (d <= c) { if (x > c) 1.0 else 0.0 }
      else math.min(1.0, math.max(0.0, (x - c) / (d - c)))
    val steps = 64
    val gt =
      if (b <= a) f2(a)
      else {
        var s = 0.0; var i = 0
        while (i < steps) { s += f2(a + (i + 0.5) * (b - a) / steps); i += 1 }
        s / steps
      }
    op match {
      case ">" | ">=" => gt
      case "<" | "<=" => 1.0 - gt
    }
  }

  /** Estimate_Errors: per candidate bucket pair, the expected number of
    * violating tuple pairs from the overlap of the partition boundaries
    * (the tax-range overlap of the paper's example): comparison count ×
    * the product over atoms of the per-atom conflict probability, in
    * both orientations.
    */
  def estimateErrors(dc: InequalityDc, stats: Seq[BucketStat]): Map[(Int, Int), Double] = {
    val byIdx = stats.map(s => s.idx -> s).toMap
    def orientProb(s1: BucketStat, s2: BucketStat): Double =
      dc.atoms.map { at =>
        val (l1, h1) = s1.bounds(at.attr); val (l2, h2) = s2.bounds(at.attr)
        atomProb(at.op, l1, h1, l2, h2)
      }.product
    candidatePairs(dc, stats).map { case (i, j) =>
      val si = byIdx(i); val sj = byIdx(j)
      val nPairs = if (i == j) si.count.toDouble * (si.count - 1) / 2
        else si.count.toDouble * sj.count
      (i, j) -> (nPairs * (orientProb(si, sj) + (if (i == j) 0.0 else orientProb(sj, si))))
    }.toMap
  }

  /** Outcome of the Algorithm 2 decision. */
  final case class Decision(estErrorsOutside: Double, errShare: Double,
                            support: Double, fullCleaning: Boolean)

  /** Decides full vs partial cleaning for a query whose answer touches
    * `resultBuckets` and has size `qaSize`; `checkedPairs` are bucket
    * pairs already examined by earlier queries. `errShare` is the
    * paper's line-6 "accuracy" (estimated-error share); cleaning goes
    * full when it exceeds `threshold` (in Fig. 10 a predicted result
    * accuracy of 23% — errShare 77% — triggers the full pass).
    */
  def decide(dc: InequalityDc, stats: Seq[BucketStat], resultBuckets: Set[Int],
             checkedPairs: Set[(Int, Int)], qaSize: Long, threshold: Double): Decision = {
    val est = estimateErrors(dc, stats)
    val outside = est.collect {
      case ((i, j), e)
        if !checkedPairs.contains((i, j)) &&
          !(resultBuckets.contains(i) && resultBuckets.contains(j)) => e
    }.sum
    val errShare = if (qaSize + outside == 0) 0.0 else outside / (qaSize + outside)
    // Support (Alg. 2 line 7): fraction of the upper-triangle partitions
    // already checked; pruned partitions never need checking and count
    // as covered.
    val nr = stats.size
    val total = nr.toLong * (nr + 1) / 2
    val unchecked = candidatePairs(dc, stats).count(p => !checkedPairs.contains(p))
    val support = if (total == 0) 1.0 else (total - unchecked).toDouble / total
    Decision(outside, errShare, support, errShare > threshold)
  }
}
