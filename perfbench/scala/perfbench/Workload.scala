package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.core.ProbData.MaterializeOps
import repro.data.{Hospital, SSB}
import repro.holoclean.HolocleanLite
import repro.offline.OfflineCleaner

/** Generated input of one workload: the dirty tables, their rules and
  * the injected errors. Generators are deterministic; the workload seed
  * only chooses query parameters.
  */
final case class Inputs(tables: Map[String, DataFrame], rules: Map[String, Seq[Rule]],
                        errors: Map[String, DataFrame])

/** One closed-loop exploration: a single analyst sends the next query of
  * a Daisy session only after the previous result has been collected.
  */
sealed trait Workload {
  def name: String
  def generate(spark: SparkSession): Inputs
  def queries(seed: Long): Seq[QuerySpec]
  /** Tables cleaned by [[OfflineCleaner]] for `offline_s` and compared
    * with Daisy's state after the session.
    */
  def offlineTables: Seq[String]
  /** Attributes whose candidate sets must equal the offline cleaner's. */
  def comparedAttrs(table: String): Seq[String]
  /** Workload-specific checks on the first session's reports. */
  def reportChecks(reports: Seq[ExecReport]): Seq[(String, Boolean)]
  /** DaisyP F1 against the injected errors, where the workload defines one. */
  def repairF1(daisy: Daisy, in: Inputs): Option[Double]

  def newDaisy(spark: SparkSession, in: Inputs): Daisy =
    new Daisy(spark, in.tables, in.rules)
}

object Workload {
  val all: Seq[Workload] = Seq(HospitalFd1, SsbDcJoin)
  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(sys.error(s"unknown workload '$n'"))

  /** Daisy's candidate sets of `attrs` equal the offline cleaner's. */
  def sameCandidates(daisyState: DataFrame, offline: OfflineCleaner.Result,
                     attrs: Seq[String]): Boolean = {
    def canon(st: DataFrame): DataFrame = {
      val c = attrs.foldLeft(st)((df, a) => ProbData.canonCands(df, a))
      c.select((ProbData.TidCol +: attrs.map(ProbData.candCol)).map(c(_)): _*)
    }
    def bag(st: DataFrame) = canon(st).collect().toSeq.groupBy(identity).map { case (r, rs) => r -> rs.size }
    bag(daisyState) == bag(offline.state)
  }
}

/** Hospital, 250 hospitals × 8 rows, FD φ1 zip → city, and a two-query
  * covering exploration: all hospitals but one type, then that type.
  * 250 hospitals give 83 cities that cross the `hospital_type`
  * partitions, so Algorithm 1 needs several iterations and pulls the
  * remaining type into the first answer; the second query then finds
  * every dirty group checked and is skipped by dirty-group pruning.
  */
object HospitalFd1 extends Workload {
  val name = "hospital_fd1"
  private val rules = Seq(Hospital.Phi1)

  def generate(spark: SparkSession): Inputs = {
    val d = Hospital.generate(spark, nHospitals = 250, rowsPer = 8,
      nTie = 25, nMinority = 31, nZipErr = 31)
    Inputs(Map("hospital" -> d.dirty.materialized), Map("hospital" -> rules),
      Map("hospital" -> d.errors.materialized))
  }

  /** The seed picks the hospital type the first query leaves out. */
  def queries(seed: Long): Seq[QuerySpec] = {
    val t = s"type_${Math.floorMod(seed, 4L)}"
    val select = (rules.flatMap(_.attrs) :+ "provider_id").distinct
    Seq(
      QuerySpec("hospital", where = Seq(Pred("hospital_type", "!=", t)), select = select),
      QuerySpec("hospital", where = Seq(Pred("hospital_type", "=", t)), select = select))
  }

  val offlineTables = Seq("hospital")
  def comparedAttrs(table: String): Seq[String] = rules.flatMap(_.attrs).distinct

  def reportChecks(reports: Seq[ExecReport]): Seq[(String, Boolean)] = Nil

  def repairF1(daisy: Daisy, in: Inputs): Option[Double] = {
    val domains = HolocleanLite.daisyDomains(daisy.state("hospital"), comparedAttrs("hospital"))
    Some(HolocleanLite.accuracy(HolocleanLite.daisyP(domains).updates, in.errors("hospital")).f1)
  }
}

/** SSB-lite: a lineorder table carrying only the price/discount
  * inequality DC, joined with a supplier table carrying ψ. The first
  * query selects an `extendedprice` band, which runs the theta-join,
  * Algorithm 2 (it switches to full cleaning: the estimated error share
  * outside the band is about 0.99) and the holistic DC repair. The
  * second joins lineorder with one clean supplier on `suppkey`: the
  * probabilistic and incremental joins run, and ψ is skipped by
  * dirty-group pruning after its statistics are computed.
  */
object SsbDcJoin extends Workload {
  val name = "ssb_dc_join"
  private val bandWidth = 22500

  def generate(spark: SparkSession): Inputs = {
    val lo = SSB.lineorder(spark, nRows = 2000, nOrderkeys = 50, nSuppkeys = 20,
      discountErrPct = 0.05)
    val su = SSB.supplier(spark, nSuppkeys = 20)
    Inputs(
      Map("lineorder" -> lo.dirty.materialized, "supplier" -> su.dirty.materialized),
      Map("lineorder" -> Seq(SSB.PriceDiscountDc), "supplier" -> Seq(SSB.Psi)),
      Map("lineorder" -> lo.errors.materialized, "supplier" -> su.errors.materialized))
  }

  /** The seed picks one of four price bands and one of the four clean
    * suppliers (every fifth supplier carries a ψ error).
    */
  def queries(seed: Long): Seq[QuerySpec] = {
    val k = Math.floorMod(seed, 4L)
    val lo = 900 + k * bandWidth
    Seq(
      QuerySpec("lineorder",
        where = Seq(Pred("extendedprice", ">=", lo.toString),
          Pred("extendedprice", "<", (lo + bandWidth).toString)),
        select = Seq("extendedprice", "discount")),
      QuerySpec("lineorder", select = Seq("orderkey", "s_name"),
        join = Some(JoinSpec("supplier", "suppkey", "suppkey",
          rightWhere = Seq(Pred("address", "=", s"saddr_${1 + k}"))))))
  }

  val offlineTables = Seq("lineorder")
  def comparedAttrs(table: String): Seq[String] = SSB.PriceDiscountDc.attrs

  def reportChecks(reports: Seq[ExecReport]): Seq[(String, Boolean)] = Seq(
    "alg2 switches to full cleaning on query 1" ->
      reports.headOption.exists(_.perRule.exists(r =>
        r.ruleId == SSB.PriceDiscountDc.id && r.switchedToFull)))

  def repairF1(daisy: Daisy, in: Inputs): Option[Double] = None
}
