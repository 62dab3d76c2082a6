package repro

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration
import scala.util.{Failure, Success}

/** Base of the seeded differential suites: ScalaCheck inputs drawn from
  * fixed seeds, the seeds checked concurrently, and session settings that
  * hold for the suite's duration. The suites compare small tables, so by
  * default one shuffle partition and interpreted expressions keep their
  * time down; the previous settings are restored afterwards.
  */
trait SeededSpec extends SparkSpec {

  protected def settings: Seq[(String, String)] = Seq("spark.sql.shuffle.partitions" -> "1",
    "spark.sql.codegen.wholeStage" -> "false", "spark.sql.codegen.factoryMode" -> "NO_CODEGEN")

  private var saved: Seq[(String, Option[String])] = Nil

  override def beforeAll(): Unit = {
    super.beforeAll()
    saved = settings.map { case (k, _) => k -> spark.conf.getOption(k) }
    settings.foreach { case (k, v) => spark.conf.set(k, v) }
  }

  override def afterAll(): Unit = {
    saved.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None) => spark.conf.unset(k)
    }
    super.afterAll()
  }

  private val params = Gen.Parameters.default

  protected def sample[A](g: Gen[A], seed: Long): A = g.pureApply(params, Seed(seed))

  /** Runs `check` on every seed, a few at a time. Every seed runs to its
    * end before the first failure is thrown, so no seed's Spark jobs
    * outlive the test.
    */
  protected def forSeeds(seeds: Seq[Long])(check: Long => Unit): Unit = {
    val outcomes = Await.result(
      Future.traverse(seeds)(seed => Future(check(seed)).transform(Success(_))), Duration.Inf)
    outcomes.collectFirst { case Failure(e) => throw e }
  }
}
