package repro.core

import org.apache.spark.sql.DataFrame

/** Per-rule metrics of one executed query. */
final case class RuleReport(table: String, ruleId: String, relaxedExtra: Long,
                            iterations: Int, dirty: Long, skippedByPruning: Boolean,
                            switchedToFull: Boolean,
                            dcDecision: Option[ThetaJoin.Decision])

/** Metrics of one executed query. `resultRows` counts the query's
  * result on its first read, in one Spark job; `execute` runs no count.
  */
final class ExecReport(val plan: Planner.Plan, val perRule: Seq[RuleReport], result: DataFrame) {
  lazy val resultRows: Long = result.count()
}
