package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The Lemma 2/3 estimates of relaxation (§4.1): the probability that an
  * extra iteration changes the fixes and the bound on one iteration's
  * growth. Nothing in the cleaning path uses them; [[RelaxationSpec]]
  * and [[PropertiesSpec]] check them against the paper's formulas.
  */
object RelaxationEstimates {

  /** Lemma 2: hypergeometric probability that a relaxed result of size
    * `resultSize` drawn from `n` tuples containing `vio` violations
    * contains at least one violation — the probability an extra
    * iteration changes the fixes.
    */
  def probExtraViolation(n: Long, vio: Long, resultSize: Long): Double = {
    require(n > 0 && vio >= 0 && resultSize >= 0 && vio <= n && resultSize <= n)
    // Pr(0) = C(n - vio, |A_R|) / C(n, |A_R|) computed in log space.
    if (vio == 0) 0.0
    else if (resultSize > n - vio) 1.0
    else {
      val logPr0 = logC(n - vio, resultSize) - logC(n, resultSize)
      1.0 - math.exp(logPr0)
    }
  }

  private def logC(n: Long, k: Long): Double = {
    require(k <= n)
    var s = 0.0
    var i = 0L
    while (i < k) { s += math.log((n - i).toDouble) - math.log((k - i).toDouble); i += 1 }
    s
  }

  /** Lemma 3: upper bound of the relaxed-result growth in one
    * iteration: Σ_i (Σ_j D_ij − Σ_j Dq_ij) over the rule attributes,
    * where D/Dq are the value-frequency distributions of the dataset
    * and of the current result.
    */
  def upperBoundExtra(state: DataFrame, resultTids: DataFrame, ruleAttrs: Seq[String]): Long = {
    val tidC = ProbData.TidCol
    ruleAttrs.map { a =>
      val vals = state.select(col(tidC), explode(ProbData.valuesExpr(state, a)).as("value"))
      val resVals = vals.join(resultTids.select(col(resultTids.columns.head).as(tidC)), tidC)
      val distinctResVals = resVals.select("value").distinct()
      val dTotal  = vals.join(distinctResVals, "value").count()
      val dqTotal = resVals.count()
      math.max(0L, dTotal - dqTotal)
    }.sum
  }
}
