package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Cleaning-aware planning (§5.1) — pure, no Spark needed. */
class PlannerSpec extends AnyFunSuite {

  private val fd  = Fd("phi", "zip", "city")
  private val psi = Fd("psi", "addr", "suppkey")
  private val rules = Map("r" -> Seq(fd), "s" -> Seq(psi)).withDefaultValue(Seq.empty[Rule])

  test("a rule overlapping the where clause injects clean_σ") {
    val p = Planner.plan(QuerySpec("r", where = Seq(Pred("city", "=", "LA"))), rules)
    assert(p.steps == Seq(Planner.CleaningStep("r", fd, Planner.AfterFilter, isJoinSide = false)))
  }

  test("a rule overlapping only the projection still injects clean_σ (§4.1 overlap)") {
    val p = Planner.plan(QuerySpec("r", where = Seq(Pred("other", "=", "x")),
      select = Seq("zip")), rules)
    assert(p.steps.map(_.rule.id) == Seq("phi"))
  }

  test("no overlap, no cleaning operator") {
    val p = Planner.plan(QuerySpec("r", where = Seq(Pred("other", "=", "x")),
      select = Seq("other")), rules)
    assert(p.steps.isEmpty)
  }

  test("incremental placement puts clean_σ after the filter") {
    val p = Planner.plan(QuerySpec("r", where = Seq(Pred("city", "=", "LA"))), rules)
    assert(p.steps.map(_.placement) == Seq(Planner.AfterFilter))
  }

  test("a switched rule is pushed before the filter (full cleaning of the relation)") {
    val p = Planner.plan(QuerySpec("r", where = Seq(Pred("city", "=", "LA"))), rules,
      switchedToFull = (_, r) => r.id == "phi")
    assert(p.steps.map(_.placement) == Seq(Planner.BeforeFilter))
  }

  test("join side rules become clean_⋈ followed by the incremental join") {
    val q = QuerySpec("r", where = Seq(Pred("city", "=", "LA")),
      join = Some(JoinSpec("s", "zip", "suppkey")))
    val p = Planner.plan(q, rules)
    // Left steps first: Daisy runs the join-side ones after the join.
    assert(p.steps.map(s => (s.table, s.rule.id, s.isJoinSide)) ==
      Seq(("r", "phi", false), ("s", "psi", true)))
  }

  test("cleaning is pushed below the group-by") {
    val q = QuerySpec("r", where = Seq(Pred("zip", "=", "1")),
      groupBy = Seq("city"), aggs = Seq(Agg("count", "zip", "n")))
    val p = Planner.plan(q, rules)
    // Daisy runs every planned step before it aggregates.
    assert(p.steps.map(s => (s.rule.id, s.placement, s.isJoinSide)) == Seq(("phi", Planner.AfterFilter, false)))
  }

  test("join key participating in a left-table rule triggers the left clean_σ") {
    val q = QuerySpec("r", join = Some(JoinSpec("s", "zip", "suppkey")))
    val p = Planner.plan(q, rules)
    assert(p.steps.exists(s => !s.isJoinSide && s.rule.id == "phi"))
  }

  test("the plan keeps its query; an untouched right-side rule gets no step") {
    val q = QuerySpec("r", where = Seq(Pred("city", "=", "LA")), select = Seq("zip"),
      join = Some(JoinSpec("s", "zip", "id", Seq(Pred("other", "=", "x")))))
    val p = Planner.plan(q, rules)
    assert(p.query == q)
    assert(p.steps.map(s => (s.table, s.rule.id)) == Seq(("r", "phi")))
  }

  test("rule overlap definition matches §4.1: (X ∪ Y) ∩ (P ∪ W) ≠ ∅") {
    assert(fd.overlaps(Seq("zip")))
    assert(fd.overlaps(Seq("city", "unrelated")))
    assert(!fd.overlaps(Seq("unrelated")))
  }
}
