package repro.core

import org.apache.spark.BlockEviction
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.{Hospital, SSB}
import repro.exp.Workloads
import repro.offline.OfflineCleaner

/** Lazily checkpointed states: a state is stored by the first action
  * that reads it, so neither Daisy's states nor its answers may depend
  * on when a caller collects, and a session must survive the eviction of
  * the stored blocks and of the broadcast fix tables.
  */
class LazyStateSpec extends SparkSpec {

  /** One covering session: its tables, rules and queries, and the table
    * and attributes compared with offline Bulk.
    */
  private final case class Session(tables: Map[String, DataFrame], rules: Map[String, Seq[Rule]],
                                   queries: Seq[QuerySpec], opts: DaisyOptions,
                                   compared: String, attrs: Seq[String]) {
    def daisy(): Daisy = new Daisy(spark, tables, rules, opts)
    def offline: DataFrame = OfflineCleaner.run(tables(compared), rules(compared)).state
  }

  /** φ1–φ3 over the four hospital types, which cover the table. */
  private lazy val hospital = {
    val attrs = Hospital.Rules.flatMap(_.attrs).distinct
    Session(Map("hospital" -> Hospital.generate(spark, 40, 6, 4, 4, 4, 2).dirty),
      Map("hospital" -> Hospital.Rules), Workloads.hospitalWorkload(attrs), DaisyOptions(),
      "hospital", attrs)
  }

  /** The price/discount DC, partially cleaned over three price bands
    * that cover lineorder, then a join with supplier, which carries ψ.
    */
  private lazy val ssb = {
    def band(preds: Pred*) = QuerySpec("lineorder", select = Seq("extendedprice", "discount"), where = preds)
    val dc = SSB.PriceDiscountDc
    Session(
      Map("lineorder" -> SSB.lineorder(spark, nRows = 400, nOrderkeys = 20, nSuppkeys = 10,
          discountErrPct = 0.05).dirty,
        "supplier" -> SSB.supplier(spark, nSuppkeys = 10).dirty),
      Map("lineorder" -> Seq(dc), "supplier" -> Seq(SSB.Psi)),
      Seq(band(Pred("extendedprice", "<", "30000")),
        band(Pred("extendedprice", ">=", "30000"), Pred("extendedprice", "<", "60000")),
        band(Pred("extendedprice", ">=", "60000")),
        QuerySpec("lineorder", select = Seq("orderkey", "s_name"),
          join = Some(JoinSpec("supplier", "suppkey", "suppkey")))),
      DaisyOptions(dcThreshold = 1.1), "lineorder", dc.attrs)
  }

  /** tid → canonical candidate sets of `attrs`. */
  private def canon(st: DataFrame, attrs: Seq[String]): Map[Long, Seq[Any]] =
    attrs.foldLeft(st)((df, a) => ProbData.canonCands(df, a))
      .select((col(ProbData.TidCol) +: attrs.map(a => col(ProbData.candCol(a)))): _*)
      .collect().map(r => r.getLong(0) -> r.toSeq.tail).toMap

  /** tid → sorted checked marks. */
  private def marks(st: DataFrame): Map[Long, Seq[String]] =
    st.select(col(ProbData.TidCol), array_sort(col(ProbData.ChkCol))).collect()
      .map(r => r.getLong(0) -> r.getSeq[String](1)).toMap

  /** An answer as a bag of rows. */
  private def bag(rows: Seq[Row]): Map[String, Int] =
    rows.map(_.toString).groupBy(identity).map { case (r, rs) => r -> rs.size }

  test("states and answers do not depend on when the answers are collected") {
    for ((name, s) <- Seq("hospital φ1–φ3" -> hospital, "SSB DC and join" -> ssb)) {
      val lazySession = s.daisy()
      val answers = s.queries.map(lazySession.execute)
      val eagerSession = s.daisy()
      val collected = s.queries.map(q => eagerSession.execute(q).collect().toSeq)

      assert(answers.map(a => bag(a.collect().toSeq)) == collected.map(bag), name)
      for (t <- s.tables.keys) {
        val attrs = s.rules(t).flatMap(_.attrs).distinct
        assert(canon(lazySession.state(t), attrs) == canon(eagerSession.state(t), attrs), s"$name, $t")
        assert(marks(lazySession.state(t)) == marks(eagerSession.state(t)), s"$name, $t")
      }
      assert(canon(lazySession.state(s.compared), s.attrs) == canon(s.offline, s.attrs), name)
    }
  }

  test("a session survives the eviction of every cached block") {
    for ((name, s) <- Seq("hospital φ1–φ3" -> hospital, "SSB DC and join" -> ssb)) {
      val d = s.daisy()
      // Between `execute` and the collection: the earlier states' blocks
      // and the new fix tables are read back after their eviction.
      val freed = s.queries.map { q =>
        val answer = d.execute(q)
        val bytes = BlockEviction.evictAll()
        answer.collect()
        bytes
      }
      assert(freed.forall(_ > 0), s"$name: bytes freed before each collection $freed")
      assert(canon(d.state(s.compared), s.attrs) == canon(s.offline, s.attrs), name)
    }
  }
}
