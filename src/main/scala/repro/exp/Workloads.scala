package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.core.ProbData.MaterializeOps
import repro.data.{Data, Hospital}
import repro.holoclean.HolocleanLite
import repro.offline.OfflineCleaner

/** Shared helpers for the evaluation workloads (§7). */
object Workloads {

  /** Wall-clock of `f` in seconds. */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** The hospital input of Tables 5–7: `nHospitals` hospitals ×
    * `rowsPer` rows with tie city errors on a tenth of the hospitals and
    * minority city and zip errors on an eighth each; the dirty table is
    * materialized.
    */
  def hospital(spark: SparkSession, nHospitals: Int, rowsPer: Int): Data = {
    val d = Hospital.generate(spark, nHospitals, rowsPer,
      nTie = nHospitals / 10, nMinority = nHospitals / 8, nZipErr = nHospitals / 8)
    d.copy(dirty = d.dirty.materialized)
  }

  /** The rule sets of Tables 5–7: φ1, then φ2 and φ3 added, by name. */
  val hospitalRuleSets: Seq[(String, Seq[Fd])] =
    (1 to Hospital.Rules.size).map(Hospital.Rules.take).map(fds => fds.map(_.id).mkString("+") -> fds)

  /** Per rule set of Tables 6 and 7: its name, the seconds of a fresh
    * Daisy session answering `workload(rules)`, and of a HoloClean run.
    */
  def fromScratch(spark: SparkSession, dirty: DataFrame,
                  workload: Seq[Fd] => Seq[QuerySpec]): Seq[(String, Double, Double)] =
    hospitalRuleSets.map { case (name, fds) =>
      (name, runWorkload(Daisy.single(spark, "hospital", dirty, fds), workload(fds)),
        HolocleanLite.run(dirty, fds).seconds)
    }

  /** One untimed pass of the first rule set of Tables 6 and 7, so that
    * no timed row carries the JVM's warm-up: an offline Bulk run, a fresh
    * Daisy session answering `workload(rules)` and a HoloClean run.
    */
  def warmUp(spark: SparkSession, dirty: DataFrame, workload: Seq[Fd] => Seq[QuerySpec]): Unit = {
    val fds = hospitalRuleSets.head._2
    OfflineCleaner.run(dirty, fds, OfflineCleaner.Mode.Bulk)
    runWorkload(Daisy.single(spark, "hospital", dirty, fds), workload(fds))
    HolocleanLite.run(dirty, fds)
  }

  /** The 4-query whole-dataset SP workload of the hospital experiments
    * (§7.3: "a workload of 4 SP queries that access the whole dataset;
    * each tuple is accessed only once"). Hospital rows partition by
    * `hospital_type` (4 values); the select list touches the rule
    * attributes so every rule overlaps the query.
    */
  def hospitalWorkload(ruleAttrs: Seq[String]): Seq[QuerySpec] =
    (0 until 4).map { t =>
      QuerySpec("hospital",
        where = Seq(Pred("hospital_type", "=", s"type_$t")),
        select = (ruleAttrs ++ Seq("provider_id")).distinct)
    }

  /** Runs a workload through a Daisy session, collecting each result
    * before the next query, and returns the total wall time in seconds.
    */
  def runWorkload(daisy: Daisy, queries: Seq[QuerySpec]): Double = {
    val (_, secs) = timed { queries.foreach(q => daisy.execute(q).collect()) }
    secs
  }

  /** The 37-query Nestle exploration (§7.3): repeated SP lookups of
    * coffee-like categories covering ~40% of the dataset
    * (6 of 15 categories).
    */
  def nestleWorkload(nCategories: Int = 15): Seq[QuerySpec] = {
    val coffee = Seq(0, 2, 4, 6, 8, 10).map(i => i % nCategories)
    (0 until 37).map { i =>
      QuerySpec("nestle",
        where = Seq(Pred("category", "=", s"cat_${coffee(i % coffee.size)}")),
        select = Seq("product_name", "material", "category"))
    }
  }

  /** The 52-query air-quality analysis (§7.3): per-county average CO
    * grouped by year, one county per query.
    */
  def airQualityWorkload(nCounties: Int): Seq[QuerySpec] =
    (0 until 52).map { i =>
      val c = (i.toLong * nCounties / 52) % nCounties
      QuerySpec("air",
        where = Seq(Pred("county_code", "=", s"cc_$c"),
          Pred("state_code", "=", s"st_${c % 50}")),
        groupBy = Seq("year"),
        aggs = Seq(Agg("avg", "co", "avg_co")))
    }

  /** The local session every runner, test and benchmark uses. The
    * cleaning loops checkpoint many intermediate frames whose sizes
    * Catalyst does not know; the MaxValue default makes the
    * size-in-bytes products of nested-join plans explode into huge
    * BigInts during (re-)planning. A finite default and non-adaptive
    * planning keep driver-side planning time flat.
    */
  def newSpark(app: String): SparkSession =
    SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.defaultSizeInBytes", 10L * 1024 * 1024)
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()
}
