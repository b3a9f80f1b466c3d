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
  * @param topWords       most common words by document frequency, descending,
  *                       ties by word in UTF-8 byte order
  * @param words          the corpus's distinct words, W (|W| = nTerms)
  */
final case class CorpusProfile(
    nDocs: Long,
    nTerms: Long,
    nWords: Long,
    distinctHist: Map[Int, Long],
    topWords: Seq[(String, Long)],
    words: Set[String],
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
}

object CorpusProfile {

  /** Profile a corpus given as a DataFrame with one document per row in its
    * `text` column: one Spark query, one shuffle, one scan of `docs` (the
    * paper's Builder equally makes a single profiling pass).
    *
    * Each document emits its distinct words plus one null word that stands
    * for the document itself, carrying its |W_i| and token count. One
    * aggregation by (word, |W_i| of the null word) then yields a row per
    * word with its document frequency and a row per |W_i| with its document
    * count and token sum; the driver reads every statistic off that collect.
    * A document without a token emits nothing, so nDocs does not count it.
    *
    * @param maxTopWords how many common words to rank (≥ the number of
    *                    common-word bins the sketch will reserve)
    */
  def profile(spark: SparkSession, docs: DataFrame, maxTopWords: Int = 2000): CorpusProfile = {
    val perDoc = docs.select(Parsers.tokens(col("text")) as "tokens")
      .select(array_distinct(col("tokens")) as "distinct", size(col("tokens")) as "n")
      .where(col("n") > 0)
    val word = col("word")
    val rows = perDoc
      .select(explode(concat(col("distinct"), array(lit(null).cast("string")))) as "word",
              size(col("distinct")) as "wi", col("n"))
      .groupBy(word, when(word.isNull, col("wi")) as "wi")
      .agg(count(lit(1)), sum(when(word.isNull, col("n"))))
      .collect()

    val hist = Map.newBuilder[Int, Long]
    val docFreq = Array.newBuilder[(String, Long)]
    var nWords = 0L
    rows.foreach { r =>
      if (r.isNullAt(0)) { hist += r.getInt(1) -> r.getLong(2); nWords += r.getLong(3) }
      else docFreq += r.getString(0) -> r.getLong(2)
    }
    val distinctHist = hist.result()
    val words = docFreq.result()
    val top = words.sorted(ByFrequency).take(maxTopWords).toSeq
    CorpusProfile(distinctHist.values.sum, words.length.toLong, nWords, distinctHist, top,
                  words.iterator.map(_._1).toSet)
  }

  /** Descending document frequency, ties by word in UTF-8 byte order: the
    * order Spark's `orderBy(desc(count), asc(word))` gives.
    */
  private val ByFrequency: Ordering[(String, Long)] = (a, b) => {
    val byCount = java.lang.Long.compare(b._2, a._2)
    if (byCount != 0) byCount else compareUtf8(a._1, b._1)
  }

  /** Compares strings as their UTF-8 bytes, i.e. by code point.
    * `String.compareTo` compares UTF-16 units, which differs where a
    * surrogate (a code point above U+FFFF) meets a unit in U+E000–U+FFFF.
    */
  private[corpus] def compareUtf8(a: String, b: String): Int = {
    val n = math.min(a.length, b.length)
    var i = 0
    while (i < n) {
      val x = a.charAt(i)
      val y = b.charAt(i)
      if (x != y) {
        val sx = Character.isSurrogate(x)
        if (sx != Character.isSurrogate(y)) return if (sx) 1 else -1
        return x - y
      }
      i += 1
    }
    a.length - b.length
  }
}
