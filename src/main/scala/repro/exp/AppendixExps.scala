package repro.exp

import org.apache.spark.sql.SparkSession

import repro.baselines.{AirphantEngine, ExactPostings, SkipListIndex, BTreeIndex}
import repro.core.{Builder, IoUConfig}

/** Appendix Fig. 14 — term-index lookup latency, AIRPHANT vs SQLite-like
  * B-tree, on all four corpora. Paper: AIRPHANT's single round trip beats
  * the cached B-tree traversal by up to 2.79× mean / 2.81× p99.
  */
object Fig14Exp {

  final case class Row(corpus: String, engine: String, meanMs: Double, p99Ms: Double)

  def run(spark: SparkSession, nQueries: Int = 96): Seq[Row] =
    EngineCache.logCorpora.flatMap { name =>
      val corpus = EngineCache.corpus(spark, name)
      val engines = EngineCache.engineSet(spark, name)
      val words = Workload.sampleWords(corpus.vocab, nQueries, seed = 1414)
      Seq(engines.airphant, engines.bTree).map { e =>
        val (mean, p99) = Workload.meanP99(Workload.lookupStats(e, words))
        Row(name, e.name, mean, p99)
      }
    }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "Fig 14: term-index lookup latency (virtual ms)",
      Seq("corpus", "engine", "mean ms", "p99 ms"),
      rows.map(r => Seq(r.corpus, r.engine, TableFmt.fmt(r.meanMs, 1), TableFmt.fmt(r.p99Ms, 1))))
}

/** Appendix Fig. 15 — scalability with corpus size on the synthetic
  * families: average search latency and index storage vs corpus size
  * 10^x for AIRPHANT, Lucene-like and SQLite-like. Paper's shape:
  * baselines win at small corpora, AIRPHANT overtakes as the corpus
  * grows; AIRPHANT's index is larger (≤ 2.85× Lucene's) but follows the
  * same logarithmic trend.
  */
object Fig15Exp {

  final case class Row(kind: String, nDocs: Long, engine: String, meanMs: Double,
                       indexBytes: Long)

  val kinds: Seq[String] = Seq("diag", "unif", "zipf")
  val sizes: Seq[Long] = Seq(1000L, 10000L, 100000L)

  def run(spark: SparkSession, nQueries: Int = 48): Seq[Row] =
    kinds.flatMap { kind =>
      sizes.flatMap { n =>
        val corpus = Corpora.synthetic(spark, kind, n, n.toInt,
                                       wordsPerDoc = if (kind == "diag") 1 else 10,
                                       bucket = s"fig15-$kind-$n")
        try {
          val config = Engines.benchConfig
          val air = Builder.build(spark, corpus.docs, corpus.bucket, "airphant",
                                  config, Some(corpus.profile))
          val airEngine = new AirphantEngine(corpus.store, air, config)
          val exact = ExactPostings.build(spark, corpus.docs, corpus.bucket, "exact")
          val sl = new SkipListIndex(corpus.store, exact, corpus.bucket, "skiplist")
          val bt = new BTreeIndex(corpus.store, exact, corpus.bucket, "btree")
          val words = Workload.sampleWords(corpus.vocab, nQueries, seed = 1500 + n)
          Seq[repro.baselines.SearchEngine](airEngine, sl, bt).map { e =>
            val (mean, _) = Workload.meanP99(Workload.searchStats(e, words))
            Row(kind, n, e.name, mean, e.indexBytes)
          }
        } finally corpus.close()
      }
    }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "Fig 15: scalability with corpus size (search latency, index size)",
      Seq("family", "n docs", "engine", "mean ms", "index size"),
      rows.map(r => Seq(r.kind, r.nDocs.toString, r.engine, TableFmt.fmt(r.meanMs, 1),
                        TableFmt.fmtBytes(r.indexBytes))))
}

/** Appendix Fig. 16 — tiny IoU structures on Cranfield: B ∈ {1000..3000},
  * wide L range; false positives, search latency, lookup latency, and
  * index storage. Paper's shape: per-B optimum L*, FPs fall as B grows,
  * storage grows sub-linearly in L, lookup latency grows ~linearly in L
  * but far below L× the single-layer cost.
  */
object Fig16Exp {

  final case class Row(b: Int, l: Int, observedFp: Double, searchMeanMs: Double,
                       lookupMeanMs: Double, indexBytes: Long)

  val bValues: Seq[Int] = Seq(1000, 1500, 2000, 2500, 3000)
  val lValues: Seq[Int] = Seq(1, 2, 4, 8, 16)

  def run(spark: SparkSession, nQueries: Int = 48): Seq[Row] = {
    val corpus = EngineCache.corpus(spark, "cranfield")
    val postings = AccuracySim.wordDocs(spark, corpus.docs)
    val accQueries = Workload.sampleWords(corpus.vocab, 300, seed = 1601)
    val queries = Workload.sampleWords(corpus.vocab, nQueries, seed = 1602)
    for (b <- bValues; l <- lValues) yield {
      val sketch = AccuracySim.buildSketch(postings, b, l)
      val obs = AccuracySim.observedFp(sketch, postings, accQueries)
      val config = IoUConfig(bins = b, layersOverride = Some(l))
      val built = Builder.build(spark, corpus.docs, corpus.bucket, s"fig16-$b-$l",
                                config, Some(corpus.profile))
      val engine = new AirphantEngine(corpus.store, built, config)
      val (searchMean, _) = Workload.meanP99(Workload.searchStats(engine, queries))
      val (lookupMean, _) = Workload.meanP99(Workload.lookupStats(engine, queries))
      Row(b, l, obs, searchMean, lookupMean, built.indexBytes)
    }
  }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "Fig 16: tiny IoU structures on Cranfield-like",
      Seq("B", "L", "observed FP", "search mean ms", "lookup mean ms", "index size"),
      rows.map(r => Seq(r.b.toString, r.l.toString, TableFmt.fmt(r.observedFp, 3),
                        TableFmt.fmt(r.searchMeanMs, 1), TableFmt.fmt(r.lookupMeanMs, 1),
                        TableFmt.fmtBytes(r.indexBytes))))
}

/** Appendix Fig. 17 — tightening the accuracy budget F0 ∈ {1, 1e-2, 1e-4}
  * at B = paper-default: the optimal L* grows only slightly (the FP decay
  * is exponential in L), so search and lookup latencies grow mildly.
  */
object Fig17Exp {

  final case class Row(f0: Double, lStar: Int, searchMeanMs: Double, lookupMeanMs: Double)

  val f0Values: Seq[Double] = Seq(1.0, 0.01, 0.0001)

  def run(spark: SparkSession, corpusName: String = "hdfs", b: Int = 5000,
          nQueries: Int = 64): Seq[Row] = {
    val corpus = EngineCache.corpus(spark, corpusName)
    val queries = Workload.sampleWords(corpus.vocab, nQueries, seed = 1717)
    f0Values.map { f0 =>
      val config = IoUConfig(bins = b, f0 = f0)
      val built = Builder.build(spark, corpus.docs, corpus.bucket, s"fig17-$f0",
                                config, Some(corpus.profile))
      val engine = new AirphantEngine(corpus.store, built, config)
      val (searchMean, _) = Workload.meanP99(Workload.searchStats(engine, queries))
      val (lookupMean, _) = Workload.meanP99(Workload.lookupStats(engine, queries))
      Row(f0, built.optimizedLayers, searchMean, lookupMean)
    }
  }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "Fig 17: accuracy budget F0 vs optimal L* and latencies (HDFS-like, B=5000)",
      Seq("F0", "L*", "search mean ms", "lookup mean ms"),
      rows.map(r => Seq(TableFmt.fmtSci(r.f0), r.lStar.toString,
                        TableFmt.fmt(r.searchMeanMs, 1), TableFmt.fmt(r.lookupMeanMs, 1))))
}
