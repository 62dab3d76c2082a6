package perfbench

/** The result line the benchmark prints last. */
object Json {
  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  /** JSON has no NaN or infinity; a ratio without a base reads 0. */
  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else v.toString

  def result(correct: Boolean, attempted: Int, failed: Int,
             metrics: Seq[(String, Double, String)]): String =
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""" +
      metrics.map { case (n, v, u) => s"""${str(n)}: {"value": ${num(v)}, "unit": ${str(u)}}""" }
        .mkString(", ") + "}}"
}
