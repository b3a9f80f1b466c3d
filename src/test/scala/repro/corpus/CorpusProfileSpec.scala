package repro.corpus

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.functions._
import org.scalactic.Tolerance._

import repro.{Oracle, SparkSpec}
import repro.cloudstore.{CloudStorage, LocalCloudStorage, NetworkModel}

class CorpusProfileSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val docs = {
    import spark.implicits._
    Seq(
      (0L, "hello world hello"),
      (1L, "hello airphant"),
      (2L, "cloud index cloud storage"),
      (3L, "world"),
    ).toDF("doc_id", "text")
  }

  test("counts on a hand-checked corpus") {
    val p = CorpusProfile.profile(spark, docs)
    assert(p.nDocs == 4)
    assert(p.nWords == 10)
    assert(p.nTerms == 6) // hello world airphant cloud index storage
    assert(p.distinctHist == Map(2 -> 2, 3 -> 1, 1 -> 1))
    assert(p.sumDistinct == 8)
  }

  test("top words ranked by document frequency, ties by word") {
    val p = CorpusProfile.profile(spark, docs)
    assert(p.topWords.head == ("hello", 2L) || p.topWords.head == ("world", 2L))
    assert(p.topWords.take(2).map(_._2).toSet == Set(2L))
    assert(p.topWords.map(_._1).distinct.size == p.topWords.size)
  }

  test("sigma_X matches the closed form sqrt((n|W| - sum|W_i|)/|W|^2)") {
    val p = CorpusProfile.profile(spark, docs)
    val want = math.sqrt((4.0 * 6 - 8.0) / 36.0)
    assert(p.sigmaX === want +- 1e-12)
  }

  test("histWithCi uses the uniform prior c_i = (|W| - |W_i|)/|W|") {
    val p = CorpusProfile.profile(spark, docs)
    p.histWithCi.foreach { case (wi, _, ci) =>
      assert(ci === (6.0 - wi) / 6.0 +- 1e-12)
    }
  }

  test("profile statistics agree with DuckDB over the exploded words relation") {
    import spark.implicits._
    val hand = Seq(
      (10000L, " \t  "),                   // no token: not a document of nDocs
      (10001L, "rep rep rep w3 rep"),        // repeated words
      (10002L, "a\u001Cb x\u2003y rep"),     // not \s, so inside a word
      (10003L, "\uFF21 \uD83D\uDE00 a\u001Cb"),
      (10004L, "\uD83D\uDE00 \uFF21 \uFFFD"),
    ).toDF("doc_id", "text")
    val corpus = CorpusGen.zipf(spark, 300, 120, 6).union(hand)
    val p = CorpusProfile.profile(spark, corpus, maxTopWords = Int.MaxValue)
    assert(p.topWords.size == p.nTerms)

    val stats = (
      Seq(("nDocs", "", "", p.nDocs.toString), ("nWords", "", "", p.nWords.toString),
          ("nTerms", "", "", p.nTerms.toString)) ++
      p.distinctHist.toSeq.map { case (wi, c) => ("hist", wi.toString, "", c.toString) } ++
      p.topWords.zipWithIndex.map { case ((w, df), i) => ("rank", (i + 1).toString, w, df.toString) } ++
      p.words.toSeq.map(w => ("word", "", w, ""))
    ).toDF("stat", "k", "word", "v")
    val words = corpus.select($"doc_id", explode(Parsers.tokens($"text")) as "word")
    Oracle.assertEquivalent(stats,
      """SELECT 'nDocs' AS stat, '' AS k, '' AS word, CAST(COUNT(DISTINCT doc_id) AS VARCHAR) AS v FROM words
        |UNION ALL SELECT 'nWords', '', '', CAST(COUNT(*) AS VARCHAR) FROM words
        |UNION ALL SELECT 'nTerms', '', '', CAST(COUNT(DISTINCT word) AS VARCHAR) FROM words
        |UNION ALL SELECT 'hist', CAST(wi AS VARCHAR), '', CAST(COUNT(*) AS VARCHAR)
        |  FROM (SELECT doc_id, COUNT(DISTINCT word) AS wi FROM words GROUP BY doc_id) GROUP BY wi
        |UNION ALL SELECT 'rank', CAST(ROW_NUMBER() OVER (ORDER BY df DESC, word ASC) AS VARCHAR), word,
        |  CAST(df AS VARCHAR)
        |  FROM (SELECT word, COUNT(DISTINCT doc_id) AS df FROM words GROUP BY word)
        |UNION ALL SELECT DISTINCT 'word', '', word, '' FROM words""".stripMargin,
      "words" -> words)
  }

  test("ties in the ranking follow UTF-8 byte order, not UTF-16 order") {
    import spark.implicits._
    // U+FF21 is EF BC A1 in UTF-8, before U+1F600's F0 9F 98 80; in UTF-16
    // it is FF21, after U+1F600's high surrogate D83D.
    val docs = Seq((0L, "\uFF21 \uD83D\uDE00"), (1L, "\uD83D\uDE00 \uFF21")).toDF("doc_id", "text")
    val p = CorpusProfile.profile(spark, docs, maxTopWords = 1)
    assert(p.topWords == Seq(("\uFF21", 2L)))
  }

  test("compareUtf8 orders strings as their unsigned UTF-8 bytes") {
    val chars = Seq("a", "z", "\u00E9", "\uD7FF", "\uE000", "\uFF21", "\uFFFF",
                    "\uD800\uDC00", "\uD83D\uDE00", "\uDBFF\uDFFF")
    val strings = for (a <- chars; b <- "" +: chars) yield a + b
    def bytes(s: String): Array[Byte] = s.getBytes("UTF-8")
    for (a <- strings; b <- strings) {
      val want = java.util.Arrays.compareUnsigned(bytes(a), bytes(b)).sign
      assert(CorpusProfile.compareUtf8(a, b).sign == want, s"$a vs $b")
    }
  }

  test("the profile is one query with one shuffle over one scan of the corpus") {
    val bucket = "profile-plan"
    CloudStorage.register(bucket, new LocalCloudStorage(NetworkModel()))
    val docs = CorpusWriter.write(spark, CorpusGen.unif(spark, 500, 200, 7), bucket, "corpus")
    try {
      val profiled = queriesOf(CorpusProfile.profile(spark, docs))
      assert(profiled.size == 1, profiled.map(_.executedPlan))
      val plan = profiled.head.executedPlan
      assert(collect(plan) { case e: ShuffleExchangeLike => e }.size == 1, plan)
      assert(collect(plan) { case s: InMemoryTableScanExec => s }.size == 1, plan)
    } finally {
      docs.unpersist()
      CloudStorage.unregister(bucket)
    }
  }

  test("profile of a bigger generated corpus is self-consistent") {
    val raw = CorpusGen.unif(spark, 500, 200, 7)
    val p = CorpusProfile.profile(spark, raw)
    assert(p.nDocs == 500)
    assert(p.nWords == 3500)
    assert(p.distinctHist.values.sum == 500)
    assert(p.distinctHist.keys.forall(wi => wi >= 1 && wi <= 7))
    assert(p.sumDistinct <= p.nWords)
    assert(p.meanWordsPerDoc === 7.0 +- 1e-9)
  }

  test("maxTopWords caps the common-word ranking") {
    val raw = CorpusGen.unif(spark, 200, 100, 5)
    val p = CorpusProfile.profile(spark, raw, maxTopWords = 7)
    assert(p.topWords.size == 7)
    // ranking is by doc frequency descending
    assert(p.topWords.map(_._2).toSeq == p.topWords.map(_._2).sortBy(-_).toSeq)
  }

  test("empty corpus is rejected") {
    import spark.implicits._
    val empty = Seq.empty[(Long, String)].toDF("doc_id", "text")
    intercept[Exception](CorpusProfile.profile(spark, empty))
  }
}
