package repro.exp

import org.apache.spark.sql.SparkSession

/** The report step and spark-submit entrypoint of the Table 5–8
  * runners: a run's rows are printed next to the paper's figures.
  */
object Report {

  /** `title`, then `header` and one line per row in aligned columns: the
    * row's key cells, its measured cells and the `paper`'s figures for
    * its key.
    */
  def render(title: String, header: Seq[String], paper: Map[Seq[String], String],
             rows: Seq[(Seq[String], Seq[String])]): String = {
    val lines = (header :+ "paper") +: rows.map { case (k, m) => k ++ m :+ paper.getOrElse(k, "") }
    val widths = lines.transpose.map(_.map(_.length).max)
    (s"=== $title (measured vs paper) ===" +: lines.map(
      _.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ").stripTrailing)).mkString("\n")
  }

  /** Runs one table: a session from [[Workloads.newSpark]], `report` of
    * the run sized by the positional `args`, printed, then the session
    * stopped.
    */
  def main(app: String, args: Array[String])(report: (SparkSession, Args) => String): Unit = {
    val spark = Workloads.newSpark(app)
    try println(report(spark, new Args(args)))
    finally spark.stop()
  }

  /** Positional size arguments: `apply(i, default)` parses the `i`th as
    * the type of `default`, or gives `default` when there is none.
    */
  final class Args(args: Array[String]) {
    def apply[N](i: Int, default: N)(implicit num: Numeric[N]): N =
      args.lift(i).fold(default)(s => num.parseString(s).getOrElse(
        throw new IllegalArgumentException(s"size argument ${i + 1} is not a number: $s")))
  }
}
