package repro.data

import org.apache.spark.sql.DataFrame

/** A generated dataset. dirty: the dataset with injected errors; clean:
  * the ground truth with identical tids; errors: the injected errors,
  * one row per erroneous tuple or cell as each generator documents.
  */
final case class Data(dirty: DataFrame, clean: DataFrame, errors: DataFrame)
