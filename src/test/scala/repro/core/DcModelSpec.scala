package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Pure rule-model semantics. */
class DcModelSpec extends AnyFunSuite {

  test("FD attrs are lhs ++ rhs") {
    assert(Fd("f", "a", "b").attrs == Seq("a", "b"))
    assert(Fd("f", Seq("a", "b"), "c").attrs == Seq("a", "b", "c"))
  }

  test("FD rejects empty lhs and rhs-in-lhs") {
    assertThrows[IllegalArgumentException](Fd("f", Seq.empty[String], "c"))
    assertThrows[IllegalArgumentException](Fd("f", Seq("a", "c"), "c"))
  }

  test("atom evaluation covers all operators") {
    assert(Atom("x", "<").eval(1, 2))
    assert(!Atom("x", "<").eval(2, 2))
    assert(Atom("x", "<=").eval(2, 2))
    assert(Atom("x", ">").eval(3, 2))
    assert(Atom("x", ">=").eval(2, 2))
  }

  test("atom rejects unsupported operators") {
    assertThrows[IllegalArgumentException](Atom("x", "="))
    assertThrows[IllegalArgumentException](Atom("x", "!="))
  }

  test("atom inversion directions (Example 5: t2 salary takes '<2000')") {
    val a = Atom("salary", "<")
    assert(a.invertedOpT1 == ">")
    assert(a.invertedOpT2 == "<")
    val b = Atom("tax", ">")
    assert(b.invertedOpT1 == "<")
    assert(b.invertedOpT2 == ">")
  }

  test("DC violates iff every atom holds") {
    val dc = InequalityDc("d", Seq(Atom("s", "<"), Atom("t", ">")))
    assert(dc.violates(Array(1.0, 0.3), Array(2.0, 0.2)))
    assert(!dc.violates(Array(1.0, 0.1), Array(2.0, 0.2)))
    // Values are in `attrs` order, whatever the atoms' order.
    val rep = InequalityDc("r", Seq(Atom("t", ">"), Atom("s", "<"), Atom("t", ">=")))
    assert(rep.attrs == Seq("t", "s"))
    assert(rep.violates(Array(0.3, 1.0), Array(0.2, 2.0)))
    assert(!rep.violates(Array(0.3, 2.0), Array(0.2, 1.0)))
  }

  test("DC attrs deduplicate") {
    val dc = InequalityDc("d", Seq(Atom("s", "<"), Atom("s", ">")))
    assert(dc.attrs == Seq("s"))
  }

  test("overlap against query attributes") {
    val dc = InequalityDc("d", Seq(Atom("s", "<"), Atom("t", ">")))
    assert(dc.overlaps(Seq("t")))
    assert(!dc.overlaps(Seq("u")))
  }

  test("Pred validates operators") {
    assertThrows[IllegalArgumentException](Pred("a", "~", "x"))
    assert(Pred("a", ">=", "1").op == ">=")
  }

  test("Agg validates functions") {
    assertThrows[IllegalArgumentException](Agg("median", "a", "m"))
  }

  test("QuerySpec accessedAttrs unions select, where, join key, group-by and aggs") {
    val q = QuerySpec("t", where = Seq(Pred("a", "=", "1")), select = Seq("b"),
      join = Some(JoinSpec("s", "k", "k2", Seq(Pred("w", "=", "2")))),
      groupBy = Seq("g"), aggs = Seq(Agg("sum", "m", "s")))
    assert(q.accessedAttrs.toSet == Set("a", "b", "k", "g", "m"))
    assert(q.rightAccessedAttrs.toSet == Set("k2", "w"))
  }
}
