package repro.core

import org.apache.spark.sql.catalyst.util.SQLOrderingUtil

/** Rule model: denial constraints as evaluated by the paper.
  *
  * Two concrete families are supported, matching §3/§4 of the paper:
  *
  *  - [[Fd]] — functional dependencies `lhs → rhs` (a DC of the form
  *    ∀t1,t2 ¬(t1.lhs = t2.lhs ∧ t1.rhs ≠ t2.rhs)). `lhs` may span
  *    multiple attributes (the air-quality rule), `rhs` is a single
  *    attribute (multi-attribute rhs decomposes into multiple FDs, §4.1).
  *  - [[InequalityDc]] — general two-tuple DCs whose atoms compare the
  *    same attribute of both tuples with an inequality, e.g.
  *    ∀t1,t2 ¬(t1.salary < t2.salary ∧ t1.tax > t2.tax). The paper
  *    focuses on this "more realistic" same-attribute case (§4.2).
  */
sealed trait Rule {
  /** Stable identifier used for provenance and checked-tuple bookkeeping. */
  def id: String

  /** All attributes the rule constrains. */
  def attrs: Seq[String]

  /** True iff the rule can affect a query touching `queryAttrs`
    * (projection ∪ where-clause attributes), per §4.1:
    * (X ∪ Y) ∩ (P ∪ W) ≠ ∅.
    */
  def overlaps(queryAttrs: Seq[String]): Boolean =
    attrs.exists(queryAttrs.contains)
}

object Rule {
  /** Rejects a table's rule set in which an attribute of an inequality
    * DC is governed by any other rule. The DC path rebuilds such an
    * attribute's candidate sets from the DC's violation pairs alone
    * ([[DcRepair.clean]] overwrites them), so another rule's candidates
    * on it would be lost; FDs may share attributes with each other.
    */
  def requireExclusiveDcAttrs(rules: Seq[Rule]): Unit =
    for ((dc: InequalityDc, i) <- rules.zipWithIndex; (r, j) <- rules.zipWithIndex if j != i)
      require(!r.attrs.exists(dc.attrs.contains), s"inequality DC ${dc.id} shares attributes " +
        s"with ${r.id}: an attribute of an inequality DC may be governed by no other rule")
}

/** Functional dependency `lhs → rhs`. */
final case class Fd(id: String, lhs: Seq[String], rhs: String) extends Rule {
  require(lhs.nonEmpty, s"FD $id needs a non-empty lhs")
  require(!lhs.contains(rhs), s"FD $id rhs must not appear in lhs")
  override def attrs: Seq[String] = lhs :+ rhs
}

object Fd {
  /** Convenience constructor for the common single-attribute lhs. */
  def apply(id: String, lhs: String, rhs: String): Fd = Fd(id, Seq(lhs), rhs)
}

/** One atom `t1.attr op t2.attr` of an inequality DC. */
final case class Atom(attr: String, op: String) {
  require(Atom.Ops.contains(op), s"unsupported atom op '$op'")

  /** Evaluates the atom on concrete numeric values, ordered as Spark SQL
    * orders doubles (NaN above every other value).
    */
  def eval(v1: Double, v2: Double): Boolean = {
    val c = SQLOrderingUtil.compareDoubles(v1, v2)
    op match {
      case "<"  => c < 0
      case "<=" => c <= 0
      case ">"  => c > 0
      case ">=" => c >= 0
    }
  }

  /** The op a candidate fix of the *t1*-side value must satisfy to
    * invert this atom: ¬(v1 < v2) ⇒ v1 ≥ v2 (the paper's Example 5
    * uses the strict form of the inverted bound, e.g. "<2000").
    */
  def invertedOpT1: String = op match {
    case "<" | "<=" => ">"
    case ">" | ">=" => "<"
  }

  /** Same for the *t2*-side value: ¬(v1 < v2) via t2 ⇒ v2 ≤ v1. */
  def invertedOpT2: String = op match {
    case "<" | "<=" => "<"
    case ">" | ">=" => ">"
  }
}

object Atom {
  val Ops: Set[String] = Set("<", "<=", ">", ">=")
}

/** Two-tuple denial constraint ∀t1,t2 ¬(atom1 ∧ atom2 ∧ …) with
  * inequality atoms over numeric attributes.
  */
final case class InequalityDc(id: String, atoms: Seq[Atom]) extends Rule {
  require(atoms.nonEmpty, s"DC $id needs at least one atom")
  override def attrs: Seq[String] = atoms.map(_.attr).distinct

  /** Each atom with the position of its attribute in [[attrs]]. */
  private val indexed: Array[(Atom, Int)] = atoms.map(a => (a, attrs.indexOf(a.attr))).toArray

  /** True iff the ordered pair (t1, t2) violates the constraint, i.e.
    * every atom holds; `t1` and `t2` hold the tuples' values in [[attrs]]
    * order.
    */
  def violates(t1: Array[Double], t2: Array[Double]): Boolean = {
    var k = 0
    while (k < indexed.length && indexed(k)._1.eval(t1(indexed(k)._2), t2(indexed(k)._2))) k += 1
    k == indexed.length
  }
}
