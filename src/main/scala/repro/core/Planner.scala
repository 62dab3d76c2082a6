package repro.core

/** Cleaning-aware logical planning (§5.1).
  *
  * The planner inspects which query-operator attributes overlap the
  * rules and injects the appropriate cleaning steps:
  *
  *  - cleaning is pushed *down*, close to the data: for group-by
  *    queries the cleaning step always precedes the aggregation; for
  *    joins each relation is cleaned before the join re-evaluation
  *    (avoiding the propagated-error re-checks of §5.1),
  *  - the placement of each `clean_σ` relative to its query operator
  *    encodes the strategy choice of §5.2.3: `AfterFilter` cleans the
  *    relaxed query result (incremental), `BeforeFilter` cleans the
  *    relation's remaining dirty part first (the full-cleaning switch
  *    driven by the [[CostModel.Tracker]]).
  */
object Planner {

  sealed trait Placement
  /** Clean the relaxed result of the query operator (incremental). */
  case object AfterFilter extends Placement
  /** Clean the relation's remaining dirty part before the operator. */
  case object BeforeFilter extends Placement

  /** One injected cleaning operator. */
  final case class CleaningStep(table: String, rule: Rule, placement: Placement,
                                isJoinSide: Boolean)

  /** A planned query: the cleaning steps in execution order. */
  final case class Plan(query: QuerySpec, steps: Seq[CleaningStep])

  /** Builds the plan. `rulesOf` maps table name → its rules;
    * `switchedToFull` tells whether the cost model already switched a
    * (table, rule) pair to full cleaning.
    */
  def plan(q: QuerySpec, rulesOf: String => Seq[Rule],
           switchedToFull: (String, Rule) => Boolean = (_, _) => false): Plan = {
    val leftAttrs = q.accessedAttrs
    val leftSteps = rulesOf(q.table).filter(_.overlaps(leftAttrs)).map { r =>
      val placement = if (switchedToFull(q.table, r)) BeforeFilter else AfterFilter
      CleaningStep(q.table, r, placement, isJoinSide = false)
    }
    val rightSteps = q.join.toSeq.flatMap { j =>
      val rAttrs = q.rightAccessedAttrs
      rulesOf(j.rightTable).filter(_.overlaps(rAttrs)).map { r =>
        val placement = if (switchedToFull(j.rightTable, r)) BeforeFilter else AfterFilter
        CleaningStep(j.rightTable, r, placement, isJoinSide = true)
      }
    }
    Plan(q, leftSteps ++ rightSteps)
  }
}
