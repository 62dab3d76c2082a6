package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Partitioned theta-join for DC error detection (§4.2).
  *
  * Follows the Okcan-Riedewald matrix mapping the paper adopts: the
  * cartesian product of the dataset with itself is a matrix whose axes
  * are split into √p value ranges on the first atom's attribute. Only
  * the upper-triangle bucket pairs are checked (symmetric pairs are
  * pruned) and a bucket pair is checked at all only if every atom of
  * the DC can hold between the buckets' value boundaries — the
  * partition-level pruning of Example 4. Intra-partition pruning
  * tightens each side's value range to the sub-range that can actually
  * produce a violation with the partner bucket.
  *
  * Violations are reported as *unordered* tid pairs (tid1 < tid2) with
  * the orientation that violates recorded, so each conflicting pair is
  * found exactly once.
  */
object ThetaJoin {

  private val tidC = ProbData.TidCol

  /** Per-bucket statistics: value boundaries of every DC attribute. */
  final case class BucketStat(idx: Int, lo: Double, hi: Double, count: Long,
                              bounds: Map[String, (Double, Double)])

  /** Result of bucketizing: stats plus the input with a `__b` column. */
  final case class Bucketized(data: DataFrame, stats: Seq[BucketStat],
                              axis: String, lo: Double, hi: Double, nRanges: Int) {
    def width: Double = if (hi > lo) (hi - lo) / nRanges else 1.0

    /** The `__b` of a tuple of any state of the bucketized relation: its
      * equi-width range of the axis value, null for a null axis value.
      */
    def bucket: Column = {
      val v = col(axis).cast("double")
      when(v.isNotNull,
        least(lit(nRanges - 1), greatest(lit(0), floor((v - lit(lo)) / lit(width)).cast("int"))))
    }
  }

  /** Splits the dataset into √p equi-width ranges on the first atom's
    * attribute (the matrix axis) and collects per-bucket boundaries of
    * every DC attribute. A tuple whose axis value is null cannot satisfy
    * the first atom, so it gets no bucket (`__b` null); an empty table or
    * an all-null axis gives no buckets at all.
    */
  def bucketize(df: DataFrame, dc: InequalityDc, p: Int): Bucketized = {
    val axis = dc.atoms.head.attr
    val nRanges = math.max(1, math.ceil(math.sqrt(p.toDouble)).toInt)
    val mm = df.agg(min(col(axis).cast("double")).as("lo"), max(col(axis).cast("double")).as("hi"))
      .collect().head
    val (lo, hi) = if (mm.isNullAt(0)) (0.0, 0.0) else (mm.getDouble(0), mm.getDouble(1))
    val shape = Bucketized(df, Nil, axis, lo, hi, nRanges)
    val data = df.withColumn("__b", shape.bucket)

    val aggCols = dc.attrs.flatMap(a => Seq(
      min(col(a).cast("double")).as(s"__min_$a"), max(col(a).cast("double")).as(s"__max_$a")))
    val allAggs = count(lit(1)).as("__cnt") +: aggCols
    val statRows = data.filter(col("__b").isNotNull).groupBy("__b")
      .agg(allAggs.head, allAggs.tail: _*)
      .collect()
    val stats = statRows.map { r =>
      val b = r.getAs[Int]("__b")
      BucketStat(b,
        lo + b * shape.width, lo + (b + 1) * shape.width, r.getAs[Long]("__cnt"),
        dc.attrs.map(a => a -> (r.getAs[Double](s"__min_$a"), r.getAs[Double](s"__max_$a"))).toMap)
    }.sortBy(_.idx).toSeq
    shape.copy(data = data, stats = stats)
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

  /** Row-level ordered-violation predicate between the `1`-suffixed and
    * `2`-suffixed attribute columns.
    */
  private def orderedViolation(dc: InequalityDc, suff1: String, suff2: String): Column =
    dc.atoms.map { at =>
      val v1 = col(at.attr + suff1).cast("double"); val v2 = col(at.attr + suff2).cast("double")
      at.op match {
        case "<"  => v1 < v2
        case "<=" => v1 <= v2
        case ">"  => v1 > v2
        case ">=" => v1 >= v2
      }
    }.reduce(_ && _)

  /** Finds all violating unordered pairs inside the given bucket pairs.
    *
    * `df` must carry `__b` (from [[bucketize]]) and may carry a
    * `__seen` boolean; pairs where *both* tuples were already seen are
    * excluded (the incremental matrix subset of §4.2: result × unseen
    * plus result × result, never seen × seen again).
    *
    * `stats` are the bucketization's statistics; the bucket indices of
    * `pairs` refer to them.
    *
    * Returns (tid1, tid2, dir) with tid1 < tid2; `dir` = "12", "21" or
    * "both" — which orientation violates.
    */
  def violations(df: DataFrame, dc: InequalityDc, pairs: Seq[(Int, Int)],
                 stats: Seq[BucketStat]): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    val hasSeen = df.columns.contains("__seen")
    val attrs = dc.attrs
    val axis  = dc.atoms.head.attr

    val base = df.select(
      (Seq(col(tidC), col("__b")) ++
        attrs.map(a => col(a).cast("double").as(a)) ++
        (if (hasSeen) Seq(col("__seen")) else Seq(lit(false).as("__seen")))): _*)

    // Intra-partition pruning (Example 4): per bucket pair, tighten the
    // admissible axis-value range of each side to the hull of the
    // orientations that can actually violate with the partner bucket.
    val byIdx = stats.map(s => s.idx -> s).toMap
    def hull(selfRole2Possible: Boolean, selfRole1Possible: Boolean,
             partner: (Double, Double)): (Double, Double) = {
      val (pl, ph) = partner
      val op = dc.atoms.head.op
      var lo = Double.PositiveInfinity; var hi = Double.NegativeInfinity
      def add(l: Double, h: Double): Unit = { lo = math.min(lo, l); hi = math.max(hi, h) }
      if (selfRole1Possible) op match { // self is t1: self op partner
        case "<" | "<=" => add(Double.NegativeInfinity, ph)
        case ">" | ">=" => add(pl, Double.PositiveInfinity)
      }
      if (selfRole2Possible) op match { // self is t2: partner op self
        case "<" | "<=" => add(pl, Double.PositiveInfinity)
        case ">" | ">=" => add(Double.NegativeInfinity, ph)
      }
      (lo, hi)
    }
    val enriched = pairs.map { case (i, j) =>
      val si = byIdx(i); val sj = byIdx(j)
      val o12 = orientationPossible(dc, si, sj) // left t1, right t2
      val o21 = orientationPossible(dc, sj, si) // right t1, left t2
      val (lLo, lHi) = hull(o21, o12, sj.bounds(axis))
      val (rLo, rHi) = hull(o12, o21, si.bounds(axis))
      (i, j, lLo, lHi, rLo, rHi)
    }
    val pairDf = enriched.toDF("__bi", "__bj", "__lLo", "__lHi", "__rLo", "__rHi")
    val left  = base.join(pairDf, base("__b") === pairDf("__bi") &&
        base(axis) >= pairDf("__lLo") && base(axis) <= pairDf("__lHi"))
      .select((Seq(col(tidC).as(tidC + "1"), col("__seen").as("__seen1"),
        col("__bi"), col("__bj")) ++ attrs.map(a => col(a).as(a + "1"))): _*)
    val right = base.join(
        pairDf.select(col("__bi").as("__ci"), col("__bj").as("__cj"),
          col("__rLo"), col("__rHi")),
        base("__b") === col("__cj") &&
          base(axis) >= col("__rLo") && base(axis) <= col("__rHi"))
      .select((Seq(col(tidC).as(tidC + "2"), col("__seen").as("__seen2"),
        col("__ci"), col("__cj")) ++ attrs.map(a => col(a).as(a + "2"))): _*)

    // Distinct bucket pairs see each unordered tuple pair once; within a
    // diagonal bucket the tid order dedupes.
    val joined = left.join(right,
      col("__bi") === col("__ci") && col("__bj") === col("__cj") &&
        (col("__bi") < col("__bj") || col(tidC + "1") < col(tidC + "2")) &&
        !(col("__seen1") && col("__seen2")))

    val v12 = orderedViolation(dc, "1", "2")
    val v21 = orderedViolation(dc, "2", "1")
    val raw = joined.filter(v12 || v21)
      .select((Seq(col(tidC + "1"), col(tidC + "2"),
        when(v12 && v21, "both").when(v12, "12").otherwise("21").as("dir")) ++
        attrs.flatMap(a => Seq(col(a + "1"), col(a + "2")))): _*)

    // Canonical orientation: tid1 < tid2, with dir/value sides swapped.
    val swap = col(tidC + "1") > col(tidC + "2")
    raw.select((Seq(
      least(col(tidC + "1"), col(tidC + "2")).as(tidC + "1"),
      greatest(col(tidC + "1"), col(tidC + "2")).as(tidC + "2"),
      when(!swap || col("dir") === "both", col("dir"))
        .when(col("dir") === "12", "21").otherwise("12").as("dir")) ++
      attrs.flatMap(a => Seq(
        when(swap, col(a + "2")).otherwise(col(a + "1")).as(a + "1"),
        when(swap, col(a + "1")).otherwise(col(a + "2")).as(a + "2")))): _*)
      .distinct()
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
