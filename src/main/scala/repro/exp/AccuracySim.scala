package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{IoUConfig, IoUMath, IoUSketch}
import repro.corpus.{CorpusProfile, Parsers}

/** In-memory accuracy simulation for the (B, L) sweeps (paper Figures 5,
  * 10a, 16a): build a pure IoU Sketch (no storage, no common-word bins —
  * matching the formula's setting) over the corpus's word→documents map
  * and compare observed false positives per query against the expected
  * F(L) of Eq. (2).
  */
object AccuracySim {

  /** Collect the corpus's exact word → document-key postings. */
  def wordDocs(spark: SparkSession, docs: DataFrame): Map[String, Array[Long]] = {
    import spark.implicits._
    docs
      .select($"doc_id", explode(array_distinct(Parsers.tokens($"text"))) as "word")
      .groupBy($"word")
      .agg(collect_list($"doc_id") as "docs")
      .as[(String, Seq[Long])]
      .collect()
      .map { case (w, ds) => w -> ds.toArray.sorted }
      .toMap
  }

  /** Build the in-memory sketch for a (B, L) cell. B is divided evenly
    * across layers (the paper assumes B divisible by L).
    */
  def buildSketch(postings: Map[String, Array[Long]], b: Int, l: Int,
                  config: IoUConfig = IoUConfig()): IoUSketch =
    IoUSketch.fromPostings(l, math.max(1, b / l), config.seeds(l), postings)

  /** Observed average false positives per query over `queryWords`. */
  def observedFp(sketch: IoUSketch, postings: Map[String, Array[Long]],
                 queryWords: Seq[String]): Double = {
    val total = queryWords.map { w =>
      val truth = postings.getOrElse(w, Array.empty[Long])
      (sketch.query(w).length - truth.length).toDouble
    }.sum
    total / queryWords.size
  }

  /** Expected false positives per query at this (B, L): (exact F, approx F̂). */
  def expectedFp(profile: CorpusProfile, b: Int, l: Int): (Double, Double) = {
    val hist = IoUMath.hist(profile)
    (IoUMath.fExact(l, b.toDouble, hist), IoUMath.fHat(l.toDouble, b.toDouble, hist))
  }
}
