package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.ThetaJoin.{BucketStat, Bucketized, orientationPossible}

/** Reference implementation of the DC clean path in Spark SQL: the
  * bucketization by two aggregations, the partitioned theta-join as a
  * tag-explode equi-join with a row-level violation filter, and the
  * holistic fixes as group-bys over exploded candidate rows. The
  * driver-side kernel ([[ThetaJoin.bucketize]], [[ThetaJoin.violationsOf]],
  * [[DcRepair.fixesOf]], [[DcRepair.clean]]) must agree with it on
  * every input; see [[DcKernelDifferentialSpec]].
  */
object DcReference {

  private val tidC = ProbData.TidCol

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
    val shape = Bucketized(df, Nil, Vector.empty, axis, lo, hi, nRanges)
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

  /** The tuple pairs the matrix compares inside the given bucket pairs:
    * rows (tid1, tid2, a1 and a2 per DC attribute) of the left and the
    * right side of a bucket pair, each inside its hull range.
    *
    * `df` must carry `__b` (from [[bucketize]]) and may carry a
    * `__seen` boolean; pairs where *both* tuples were already seen are
    * excluded (the incremental matrix subset of §4.2: result × unseen
    * plus result × result, never seen × seen again).
    *
    * `stats` are the bucketization's statistics; the bucket indices of
    * `pairs` refer to them.
    */
  def compared(df: DataFrame, dc: InequalityDc, pairs: Seq[(Int, Int)],
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
    left.join(right,
      col("__bi") === col("__ci") && col("__bj") === col("__cj") &&
        (col("__bi") < col("__bj") || col(tidC + "1") < col(tidC + "2")) &&
        !(col("__seen1") && col("__seen2")))
  }

  /** Finds all violating unordered pairs among the [[compared]] pairs.
    * Returns (tid1, tid2, dir) with tid1 < tid2; `dir` = "12", "21" or
    * "both" — which orientation violates.
    */
  def violations(df: DataFrame, dc: InequalityDc, pairs: Seq[(Int, Int)],
                 stats: Seq[BucketStat]): DataFrame = {
    val attrs = dc.attrs
    val joined = compared(df, dc, pairs, stats)
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

  /** Candidate rows (tid, attr, v, op, n) for every tuple of every
    * violating pair found by [[violations]].
    */
  def candidateRows(violations: DataFrame, dc: InequalityDc, maxFixAtoms: Int = 1): DataFrame = {
    val k = dc.atoms.size
    val subsets = (1 to math.min(maxFixAtoms, k)).flatMap(sz =>
      dc.atoms.indices.combinations(sz).map(_.toSet))
    val nFixes = subsets.size

    // For each tuple side and each attribute: how many fixes change it
    // vs keep it. With distinct atom attributes, attr of atom i changes
    // in the fixes whose subset contains i.
    val changesPerAtom = dc.atoms.indices.map(i => subsets.count(_.contains(i)))

    val rows = violations.select(
      col(tidC + "1"), col(tidC + "2"), col("dir"),
      array(dc.attrs.map(a => col(a + "1")): _*).as("vals1"),
      array(dc.attrs.map(a => col(a + "2")): _*).as("vals2"))

    // Orientation-expanded: one row per ordered violation.
    val oriented = rows
      .withColumn("__o", explode(
        when(col("dir") === "both", array(lit("12"), lit("21")))
          .otherwise(array(col("dir")))))

    // Per atom, per side: emit the original-value candidate and the
    // range candidate with the fix-frequency supports.
    val o12 = col("__o") === "12"
    val (tid1, tid2) = (when(o12, col(tidC + "1")).otherwise(col(tidC + "2")),
      when(o12, col(tidC + "2")).otherwise(col(tidC + "1")))
    val perAtom = dc.atoms.zipWithIndex.flatMap { case (at, i) =>
      val vi = dc.attrs.indexOf(at.attr)
      val (t1, t2) = (when(o12, col("vals1")(vi)).otherwise(col("vals2")(vi)),
        when(o12, col("vals2")(vi)).otherwise(col("vals1")(vi)))
      def cand(tid: Column, v: Column, op: String, n: Int): Column =
        struct(tid.as("tid"), lit(at.attr).as("attr"), v.cast("string").as("v"),
          lit(op).as("op"), lit(n).as("n"))
      val chg = changesPerAtom(i)
      Seq(cand(tid1, t1, "=", nFixes - chg), cand(tid1, t2, at.invertedOpT1, chg),
        cand(tid2, t2, "=", nFixes - chg), cand(tid2, t1, at.invertedOpT2, chg))
    }

    oriented
      .select(explode(array(perAtom: _*)).as("c"))
      .select(col("c.tid").as(tidC), col("c.attr"), col("c.v"), col("c.op"), col("c.n"))
      .filter(col("n") > 0)
  }

  /** Aggregates candidate rows into per-(tid, attr) candidate arrays
    * with frequency probabilities, shaped like [[ProbData.CandType]].
    */
  def fixes(violations: DataFrame, dc: InequalityDc, maxFixAtoms: Int = 1): DataFrame = {
    val cands = candidateRows(violations, dc, maxFixAtoms)
      .groupBy(tidC, "attr", "v", "op").agg(sum("n").as("n"))
    val perCell = cands.groupBy(tidC, "attr").agg(
      sum("n").as("tot"),
      array_sort(collect_list(struct(col("v"), col("op"), col("n")))).as("cs"))
    perCell.select(col(tidC), col("attr"),
      transform(col("cs"), c => struct(
        c.getField("v").as("v"), c.getField("op").as("op"),
        (c.getField("n") / col("tot")).cast("double").as("p"),
        lit("DC").as("w"), c.getField("n").cast("long").as("n"))).as("cands"))
  }

  /** Applies DC fixes to the state: the per-attribute fixes replace the
    * candidate sets of the DC's attributes, and `checkedTids` are marked
    * checked by `dc`, through one join of the state with a table of one
    * row per fixed or marked tuple. Replacing is exact: callers pass the
    * fixes of every violation pair found so far, so a DC cell without a
    * fix never had a DC candidate, and no other rule writes a DC
    * attribute's candidates ([[Rule.requireExclusiveDcAttrs]]).
    */
  def applyFixes(state: DataFrame, fixesDf: DataFrame, checkedTids: DataFrame,
                          dc: InequalityDc): DataFrame = {
    val perAttr = dc.attrs.map(a =>
      first(when(col("attr") === a, col("cands")), ignoreNulls = true).as(TestData.fixCol(a)))
    val table = fixesDf.groupBy(tidC).agg(perAttr.head, perAttr.tail: _*)
      .join(checkedTids.toDF(tidC).distinct().withColumn("__mark", lit(true)), Seq(tidC), "full_outer")
    val updated = dc.attrs.map { a =>
      val (cc, fc) = (col(ProbData.candCol(a)), col(TestData.fixCol(a)))
      ProbData.candCol(a) -> when(fc.isNull, cc).otherwise(fc)
    }.toMap + (ProbData.ChkCol -> when(col("__mark"),
      array_union(col(ProbData.ChkCol), array(lit(dc.id)))).otherwise(col(ProbData.ChkCol)))
    state.join(table, Seq(tidC), "left")
      .select(state.columns.toSeq.map(c => updated.get(c).fold(col(c))(_.as(c))): _*)
  }

}
