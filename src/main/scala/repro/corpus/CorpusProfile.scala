package repro.corpus

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Corpus statistics collected by the Builder's single profiling pass
  * (§III-C / §IV-B): document count, total and distinct word counts, the
  * histogram of per-document distinct-word counts |W_i| (the only
  * document-level statistic the false-positive formula needs), and the
  * document frequencies of the most common words (for the 1% exact bins,
  * §IV-E).
  *
  * @param nDocs          n, number of documents
  * @param nTerms         |W|, number of distinct words in the corpus
  * @param nWords         total number of word occurrences
  * @param distinctHist   |W_i| -> number of documents with that many distinct words
  * @param topWords       most common words by document frequency, descending
  */
final case class CorpusProfile(
    nDocs: Long,
    nTerms: Long,
    nWords: Long,
    distinctHist: Map[Int, Long],
    topWords: Seq[(String, Long)],
) {
  require(nDocs > 0 && nTerms > 0, "profile of an empty corpus")

  /** Σ_i |W_i|. */
  def sumDistinct: Long = distinctHist.iterator.map { case (w, c) => w.toLong * c }.sum

  /** Histogram rows (|W_i|, #docs, c_i) under the uniform query-word prior
    * p_w = 1/|W| (§IV-B): c_i = (|W| - |W_i|)/|W| is the probability a
    * query word is irrelevant to such a document.
    */
  def histWithCi: Seq[(Int, Long, Double)] =
    distinctHist.toSeq.sorted.map { case (wi, cnt) =>
      (wi, cnt, (nTerms - math.min(wi, nTerms)).toDouble / nTerms)
    }

  /** Table II's corpus-dependent Hoeffding coefficient, uniform prior:
    * σ_X = sqrt( Σ_i Σ_{w ∉ W_i} p_w² ) = sqrt( (n·|W| − Σ_i|W_i|) / |W|² ).
    */
  def sigmaX: Double =
    math.sqrt((nDocs.toDouble * nTerms - sumDistinct.toDouble) / (nTerms.toDouble * nTerms))

  /** Mean words per document. */
  def meanWordsPerDoc: Double = nWords.toDouble / nDocs
}

object CorpusProfile {

  /** Profile a corpus given as a DataFrame with `text` (and `doc_id`)
    * columns. One shuffle per statistic family; all Catalyst (the paper's
    * Builder equally makes a single profiling pass).
    *
    * @param maxTopWords how many common words to rank (≥ the number of
    *                    common-word bins the sketch will reserve)
    */
  def profile(spark: SparkSession, docs: DataFrame, maxTopWords: Int = 2000): CorpusProfile = {
    import spark.implicits._
    val words = docs.select($"doc_id", explode(Parsers.tokens($"text")) as "word")
    words.cache()
    try {
      val nWords = words.count()
      val nTerms = words.select("word").distinct().count()
      val perDoc = words.groupBy("doc_id").agg(countDistinct("word") as "wi")
      val hist = perDoc.groupBy("wi").count()
        .as[(Long, Long)].collect().map { case (wi, c) => (wi.toInt, c) }.toMap
      val nDocs = hist.values.sum
      val top = words.distinct()
        .groupBy("word").count()
        .orderBy(desc("count"), asc("word"))
        .limit(maxTopWords)
        .as[(String, Long)].collect().toSeq
      CorpusProfile(nDocs, nTerms, nWords, hist, top)
    } finally words.unpersist()
  }
}
