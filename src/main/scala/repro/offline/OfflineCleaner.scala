package repro.offline

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.ProbData.MaterializeOps

/** The paper's offline comparator (§7, "our own offline implementation
  * over Spark"): full-dataset error detection and probabilistic repair.
  *
  * Two repair modes:
  *
  *  - [[Mode.Bulk]] — detection via a group-by on the lhs (the
  *    BigDansing optimization) and repair of all dirty groups in one
  *    shot. This is the §7.1 comparator that ties with Daisy when a
  *    workload covers the whole dataset.
  *  - [[Mode.PerGroup]] — the §5.2.1 cost shape O(ε·n): the repair
  *    "performs multiple scans to compute the candidate values for
  *    each error", i.e. one pass over the dataset per erroneous group.
  *    This is what makes offline cleaning collapse on Nestle/air
  *    quality, where erroneous groups number in the thousands
  *    (§7.3: "the number of iterations over the dataset is
  *    proportional to the number of detected erroneous groups").
  *    A wall-clock timeout mirrors the paper's one-day cap.
  *
  * Both modes produce the same probabilistic state as Daisy does after
  * a whole-dataset workload — the equivalence the paper reports
  * ("Daisy outputs the same results with the offline approach").
  */
object OfflineCleaner {

  sealed trait Mode
  object Mode {
    case object Bulk extends Mode
    case object PerGroup extends Mode
  }

  /** Result of an offline run. */
  final case class Result(state: DataFrame, seconds: Double, timedOut: Boolean,
                          groupsProcessed: Long, groupsTotal: Long)

  private val tidC = ProbData.TidCol

  /** Cleans all rules over the whole dataset. `timeoutSec` only
    * applies to [[Mode.PerGroup]].
    */
  def run(df: DataFrame, rules: Seq[Rule], mode: Mode = Mode.Bulk,
          timeoutSec: Double = Double.PositiveInfinity,
          dcPartitions: Int = 64): Result = {
    Rule.requireExclusiveDcAttrs(rules)
    val t0 = System.nanoTime()
    var state = ProbData.init(df, rules).materialized
    var timedOut = false
    var done = 0L
    var total = 0L
    for (r <- rules if !timedOut) r match {
      case fd: Fd => mode match {
        case Mode.Bulk =>
          val (cleaned, fixes) = FdRepair.clean(state, fd, lit(true))
          state = cleaned
          done += fixes.nDirtyGroups; total += fixes.nDirtyGroups
        case Mode.PerGroup =>
          val (s2, d, t, to) = cleanFdPerGroup(state, fd, t0, timeoutSec)
          state = s2; done += d; total += t; timedOut ||= to
      }
      case dc: InequalityDc =>
        val buck = ThetaJoin.bucketize(state, dc, dcPartitions)
        val pairs = ThetaJoin.candidatePairs(dc, buck.stats)
        state = DcRepair.clean(state, ThetaJoin.violations(buck.data, dc, pairs, buck.stats), dc)._1
    }
    Result(state, (System.nanoTime() - t0) / 1e9, timedOut, done, total)
  }

  /** One pass over the dataset per erroneous group: for each violating
    * lhs value, scan for its rhs distribution, then scan again for the
    * lhs values co-occurring with the group's rhs values — the repair
    * loop the paper attributes to offline cleaning.
    */
  private def cleanFdPerGroup(state0: DataFrame, fd: Fd, t0: Long,
                              timeoutSec: Double): (DataFrame, Long, Long, Boolean) = {
    var state = state0
    val lvCol = concat_ws(Relaxation.Sep, fd.lhs.map(col): _*)
    val g = state.select(col(tidC), lvCol.as("lv"), col(fd.rhs).cast("string").as("rv"))
      .materialized
    val dirtyGroups = g.groupBy("lv").agg(countDistinct("rv").as("ndr"))
      .filter(col("ndr") > 1).select("lv").collect().map(_.getString(0))

    val spark = state.sparkSession
    var processed = 0L
    var timedOut = false
    val fixBuffers = scala.collection.mutable.Buffer[DataFrame]()

    for (lv <- dirtyGroups if !timedOut) {
      // Scan 1: the group's rhs distribution — P(rhs | lhs).
      val grp = g.filter(col("lv") === lv)
      val rhsDist = grp.groupBy("rv").count().collect()
      val tot = rhsDist.map(_.getLong(1)).sum.toDouble
      val rhsCands = rhsDist.sortBy(r => r.getString(0))
        .map(r => Row(r.getString(0), "=", r.getLong(1) / tot, "R", r.getLong(1)))

      // Scan 2: for each rhs value of the group, the lhs values that
      // co-occur with it anywhere in the dataset — P(lhs | rhs).
      val rvs = rhsDist.map(_.getString(0))
      val lhsByRv = g.filter(col("rv").isin(rvs: _*))
        .groupBy("rv", "lv").count().collect()
        .groupBy(_.getString(0))
        .map { case (rv, rows) =>
          val t2 = rows.map(_.getLong(2)).sum.toDouble
          rv -> rows.sortBy(_.getString(1))
            .map(r => Row(r.getString(1), "=", r.getLong(2) / t2, "L", r.getLong(2)))
        }

      val tids = grp.select(tidC, "rv").collect()
      val fixRows = tids.map { r =>
        val rv = r.getString(1)
        val lhsCands = lhsByRv.get(rv).filter(_.length > 1).map(_.toSeq).orNull
        Row(r.getLong(0), rhsCands.toSeq, lhsCands)
      }
      val schema = org.apache.spark.sql.types.StructType(Seq(
        org.apache.spark.sql.types.StructField(tidC, org.apache.spark.sql.types.LongType),
        org.apache.spark.sql.types.StructField("__rhsFix", ProbData.CandType),
        org.apache.spark.sql.types.StructField("__lhsFix", ProbData.CandType)))
      fixBuffers += spark.createDataFrame(
        spark.sparkContext.parallelize(fixRows.toSeq, 1), schema)

      processed += 1
      if ((System.nanoTime() - t0) / 1e9 > timeoutSec) timedOut = true
    }

    if (fixBuffers.nonEmpty) {
      val allFixes = fixBuffers.reduce(_ union _).materialized
      var out = state.join(allFixes, Seq(tidC), "left")
        .withColumn(ProbData.candCol(fd.rhs),
          when(col("__rhsFix").isNull, col(ProbData.candCol(fd.rhs)))
            .otherwise(ProbData.mergeCands(col(ProbData.candCol(fd.rhs)), col("__rhsFix"))))
      // Per-attribute split of the lhs fix (exact for single-attr lhs).
      for ((a, i) <- fd.lhs.zipWithIndex) {
        val parts = transform(col("__lhsFix"), c => struct(
          element_at(split(c.getField("v"), Relaxation.Sep), i + 1).as("v"),
          c.getField("op").as("op"), c.getField("p").as("p"),
          c.getField("w").as("w"), c.getField("n").as("n")))
        out = out.withColumn(ProbData.candCol(a),
          when(col("__lhsFix").isNull, col(ProbData.candCol(a)))
            .otherwise(ProbData.mergeCands(col(ProbData.candCol(a)), parts)))
      }
      state = out.drop("__rhsFix", "__lhsFix")
    }
    state = ProbData.markChecked(state, state.select(tidC), fd.id).materialized
    (state, processed, dirtyGroups.length.toLong, timedOut)
  }
}
