package perfbench

import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Attributes Spark work to benchmark scopes and to program modules,
  * from outside the program.
  *
  * The benchmark names the call it is about to make with [[scope]]; the
  * name travels to the scheduler as a job-local property, so every job,
  * stage and task it starts is counted under it. Each stage is also
  * attributed to the innermost `repro.*` frame of its call site
  * (`StageInfo.details`, as deep as `spark.callstack.depth`), skipping the
  * checkpoint helper, so a stage triggered inside `Relaxation.relax`
  * counts for `core.Relaxation` whichever scope ran it.
  */
final class StageTracer(sc: SparkContext) extends SparkListener {
  import StageTracer._

  private final class Job(val scope: String, val start: Long, val checkpoint: Boolean) {
    var end: Long = -1L
  }

  private val jobs = mutable.LinkedHashMap[Int, Job]()
  private val stageScope = mutable.Map[Int, String]()
  private val stages = mutable.Buffer[(String, String)]() // (scope, module)
  private val tasks = mutable.Map[String, Long]().withDefaultValue(0L)

  sc.addSparkListener(this)

  /** Names the work the calling thread starts from now on. */
  def scope(name: String): Unit = sc.setLocalProperty(ScopeKey, name)

  private def scopeOf(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty(ScopeKey))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    // The result stage is created by this job, so it carries this job's
    // call site; earlier stages may be reused from other jobs.
    val site = if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).details
    jobs(e.jobId) = new Job(scopeOf(e.properties), e.time, site.contains(CheckpointFrame))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val s = scopeOf(e.properties)
    stageScope(e.stageInfo.stageId) = s
    stages += s -> module(e.stageInfo.details)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks(stageScope.getOrElse(e.stageId, "")) += 1
  }

  /** Totals over the scopes accepted by `in`, after the listener has
    * caught up with every event posted so far.
    */
  def summary(in: String => Boolean): Summary = {
    PerfbenchBus.drain(sc)
    synchronized {
      val js = jobs.values.filter(j => in(j.scope)).toSeq
      val byModule = stages.collect { case (s, m) if in(s) => m }
        .groupBy(identity).map { case (m, xs) => m -> xs.size.toLong }
      Summary(js.size, stages.count(x => in(x._1)), tasks.collect { case (s, n) if in(s) => n }.sum,
        inJobSeconds(js), js.count(_.checkpoint), byModule)
    }
  }

  def summary(scopeName: String): Summary = summary(_ == scopeName)

  /** Length of the union of the jobs' [start, end] intervals. */
  private def inJobSeconds(js: Seq[Job]): Double = {
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    for (j <- js.filter(_.end >= 0).sortBy(_.start)) {
      if (j.start > curE) {
        if (curE > curS) total += curE - curS
        curS = j.start; curE = j.end
      } else curE = math.max(curE, j.end)
    }
    if (curE > curS) total += curE - curS
    total / 1e3
  }
}

object StageTracer {
  val ScopeKey = "perfbench.scope"
  val Unattributed = "-"
  private val CheckpointFrame = "ReproCheckpoint$.statsFree"
  private val ReproFrame = """^(repro\.[a-z]+\.[A-Za-z0-9_]+)""".r.unanchored

  final case class Summary(jobs: Long, stages: Long, tasks: Long, inJobSeconds: Double,
                           checkpointJobs: Long, stagesByModule: Map[String, Long]) {
    def moduleStages(m: String): Long = stagesByModule.getOrElse(m, 0L)
  }

  /** `core.Relaxation` for a call site whose innermost program frame is
    * `repro.core.Relaxation$.relax(...)`; [[Unattributed]] without one.
    */
  def module(details: String): String =
    details.split('\n').iterator.map(_.trim)
      .filter(l => l.startsWith("repro.") && !l.startsWith("repro.core.ProbData$MaterializeOps"))
      .collectFirst { case ReproFrame(cls) => cls.stripPrefix("repro.") }
      .getOrElse(Unattributed)
}
