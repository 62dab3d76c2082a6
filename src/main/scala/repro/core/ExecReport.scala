package repro.core

/** Per-rule metrics of one executed query. */
final case class RuleReport(table: String, ruleId: String, relaxedExtra: Long,
                            iterations: Int, dirty: Long, skippedByPruning: Boolean,
                            switchedToFull: Boolean,
                            dcDecision: Option[ThetaJoin.Decision])

/** Metrics of one executed query. */
final case class ExecReport(plan: Planner.Plan, perRule: Seq[RuleReport])
