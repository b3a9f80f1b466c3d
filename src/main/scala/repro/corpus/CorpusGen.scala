package repro.corpus

import java.util.{Random => JRandom}

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic corpus generators.
  *
  * The paper evaluates on three synthetic families (§V-A0a) — denoted
  * `diag(log10 n_d, log10 n_w, log10 n_l)`, `unif(...)`, `zipf(...)` —
  * and four real corpora (Cranfield plus the LogHub HDFS/Windows/Spark
  * logs). The real corpora are not redistributable here, so
  * [[LogCorpusGen]] generates *shape-matched* substitutes: same
  * document-count-to-vocabulary ratio (which fixes the paper's σ_X
  * coefficient of Table II), and similar words-per-document.
  *
  * Every generator is deterministic in (its parameters, seed): each
  * document's words are produced by an RNG seeded from the document id.
  */
object CorpusGen {

  /** diag: document i contains exactly the single word "w<i>" (n_l = 1). */
  def diag(spark: SparkSession, nDocs: Long): DataFrame = {
    import spark.implicits._
    spark.range(nDocs).select($"id" as "doc_id", concat(lit("w"), $"id") as "text")
  }

  /** unif: each of `wordsPerDoc` words is drawn uniformly from an
    * `nVocab`-word dictionary. (Realised vocabulary may be smaller than
    * `nVocab` — the coupon-collector effect the paper notes.)
    */
  def unif(spark: SparkSession, nDocs: Long, nVocab: Int, wordsPerDoc: Int,
           seed: Long = 7): DataFrame =
    sampled(spark, nDocs, wordsPerDoc, seed)((rng, _) => rng.nextInt(nVocab))

  /** zipf: like unif but word ranks follow a Zipfian law with exponent
    * `alpha` (paper: 1.07). Inverse-CDF sampling over precomputed
    * cumulative weights, broadcast to executors.
    */
  def zipf(spark: SparkSession, nDocs: Long, nVocab: Int, wordsPerDoc: Int,
           alpha: Double = 1.07, seed: Long = 11): DataFrame = {
    val cdf = zipfCdf(nVocab, alpha)
    val bc = spark.sparkContext.broadcast(cdf)
    sampled(spark, nDocs, wordsPerDoc, seed)((rng, _) => searchCdf(bc.value, rng.nextDouble()))
  }

  /** Cumulative distribution over ranks 1..n with weight 1/k^alpha. */
  private[corpus] def zipfCdf(n: Int, alpha: Double): Array[Double] = {
    val w = Array.tabulate(n)(k => 1.0 / math.pow(k + 1.0, alpha))
    val total = w.sum
    var acc = 0.0
    w.map { x => acc += x / total; acc }
  }

  /** Index of the first cdf entry >= u (binary search). */
  private[corpus] def searchCdf(cdf: Array[Double], u: Double): Int = {
    var lo = 0; var hi = cdf.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cdf(mid) < u) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Deterministic per-document RNG, decorrelated across docs. */
  private[corpus] def docRng(seed: Long, docId: Long): JRandom =
    new JRandom(seed * 0x9E3779B97F4A7C15L + (docId + 1) * 0xC2B2AE3D27D4EB4FL)

  /** Build a corpus whose i-th document is `wordsPerDoc` draws of
    * `draw(rng, position)` rendered as "w<index>".
    */
  private def sampled(spark: SparkSession, nDocs: Long, wordsPerDoc: Int, seed: Long)(
      draw: (JRandom, Int) => Int): DataFrame = {
    import spark.implicits._
    val gen = udf { (docId: Long) =>
      val rng = docRng(seed, docId)
      val sb = new StringBuilder
      var j = 0
      while (j < wordsPerDoc) {
        if (j > 0) sb.append(' ')
        sb.append('w').append(draw(rng, j))
        j += 1
      }
      sb.toString
    }
    spark.range(nDocs).select($"id" as "doc_id", gen($"id") as "text")
  }
}

/** Shape-matched substitutes for the paper's four real corpora.
  *
  * Each corpus reproduces (at laptop scale) the document:vocabulary ratio
  * of the original — the quantity that fixes σ_X ≈ sqrt(n/|W|) in
  * Table II — and approximates its words-per-document. The log corpora
  * are template-based like real system logs: a small skewed static
  * vocabulary (log message templates) plus a large flat parameter space
  * (block ids, IPs, counters).
  */
object LogCorpusGen {
  import CorpusGen.{docRng, searchCdf, zipfCdf}

  /** One corpus family's generation parameters. */
  final case class Spec(
      name: String,
      nDocs: Long,
      staticVocab: Int,   // distinct template words
      staticPerDoc: Int,  // template words per document (zipf-skewed draws)
      staticAlpha: Double,
      paramCardinality: Int, // distinct parameter values across the corpus
      paramsPerDoc: Int,     // parameter words per document (uniform draws)
      seed: Long,
  )

  /** Cranfield-like: 1398 abstract-style documents, vocab ≈ 5.3k, ~86
    * words/doc (paper Table II: n=1.4e3, |W|=5.3e3, 1.2e5 total words).
    */
  val cranfield: Spec = Spec("cranfield", 1398, 5800, 86, 0.9, 0, 0, 101)

  /** HDFS-like logs. Paper: n=1.1e7, |W|=3.6e6 (ratio 3.06), ~12.7 w/doc.
    * Scaled: n=3e4 with ratio preserved.
    */
  val hdfs: Spec = Spec("hdfs", 30000, 120, 10, 1.07, 9700, 3, 102)

  /** Windows-like logs. Paper: n=1.1e8, |W|=8.3e5 (ratio 132.5), ~15.5 w/doc. */
  val windows: Spec = Spec("windows", 40000, 250, 13, 1.07, 55, 3, 103)

  /** Spark-like logs. Paper: n=3.3e7, |W|=5.2e6 (ratio 6.35), ~10.6 w/doc. */
  val sparkLogs: Spec = Spec("spark", 30000, 150, 8, 1.07, 4600, 3, 104)

  val all: Seq[Spec] = Seq(cranfield, hdfs, windows, sparkLogs)

  def byName(name: String): Spec =
    all.find(_.name == name).getOrElse(sys.error(s"unknown log corpus: $name"))

  /** Generate the corpus as a (doc_id, text) DataFrame. */
  def generate(spark: SparkSession, spec: Spec): DataFrame = {
    import spark.implicits._
    val cdf = zipfCdf(spec.staticVocab, spec.staticAlpha)
    val bc = spark.sparkContext.broadcast(cdf)
    val gen = udf { (docId: Long) =>
      val rng = docRng(spec.seed, docId)
      val sb = new StringBuilder
      var j = 0
      while (j < spec.staticPerDoc) {
        if (sb.nonEmpty) sb.append(' ')
        sb.append('t').append(searchCdf(bc.value, rng.nextDouble()))
        j += 1
      }
      var k = 0
      while (k < spec.paramsPerDoc) {
        if (sb.nonEmpty) sb.append(' ')
        sb.append('p').append(rng.nextInt(spec.paramCardinality))
        k += 1
      }
      sb.toString
    }
    spark.range(spec.nDocs).select($"id" as "doc_id", gen($"id") as "text")
  }
}
