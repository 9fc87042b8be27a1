package repro.tables

import org.apache.spark.sql.SparkSession

/** Every reproduced table by name, with the session count its
  * spark-submit run uses by default and a function that runs it and
  * renders the printed text.
  */
object Tables {

  final case class Entry(defaultSessions: Long, render: (SparkSession, Long) => String)

  val byName: Map[String, Entry] = Map(
    // detector comparison, anomaly-free training (§III plan 1)
    "T1" -> Entry(20000, (s, n) => T1DetectorComparison.render(T1DetectorComparison.run(s, n))),
    // multi-source mixing (§III plan 3)
    "T2" -> Entry(8000, (s, n) => T2MultiSource.render(T2MultiSource.run(s, n))),
    // instability robustness (§III plan 2)
    "T3" -> Entry(8000, (s, n) => T3Instability.render(T3Instability.run(s, n))),
    // online parser benchmark and Drain sensitivity (§IV)
    "T4" -> Entry(2000, (s, n) =>
      T4ParserBenchTable.renderA(T4ParserBenchTable.runA(s, n)) + "\n\n" +
        T4ParserBenchTable.renderB(T4ParserBenchTable.runB(s, n))),
    // structured-payload pre-extraction (§IV)
    "T5" -> Entry(2000, (s, n) => T5PreExtraction.render(T5PreExtraction.run(s, n))),
    // quantitative detection vs token accuracy (§IV Eq. 1)
    "T6" -> Entry(8000, (s, n) => T6QuantDetection.render(T6QuantDetection.run(s, n))),
    // feedback-trained classifier (§V)
    "T7" -> Entry(20000, (s, n) => T7Classifier.render(T7Classifier.run(s, n))),
    // scalability of distributed parsing and the end-to-end pipeline
    "T8" -> Entry(40000, (s, n) => T8Scalability.render(T8Scalability.run(s, n))),
  )
}
