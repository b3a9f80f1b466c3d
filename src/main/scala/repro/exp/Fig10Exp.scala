package repro.exp

import org.apache.spark.sql.SparkSession

import repro.baselines.AirphantEngine
import repro.core.{Builder, IoUConfig, IoUMath, LayerOptimizer}

/** Figure 10 — effect of the IoU structure (B, L) on HDFS: expected/observed
  * false positives, average search latency, and average term-lookup
  * latency. B values are scaled 20× down from the paper's {50k..400k}
  * to match our corpus scale. The paper's shape: FPs are enormous at
  * L = 1, < 1 at L = 2, ~0 beyond; search latency is U-shaped in L
  * (filtering cost vs lookup bandwidth contention); lookup latency grows
  * with L; the optimizer picks L* = 2.
  */
object Fig10Exp {

  final case class Row(b: Int, l: Int, expectedFp: Double, observedFp: Double,
                       searchMeanMs: Double, lookupMeanMs: Double)

  val bValues: Seq[Int] = Seq(2500, 5000, 10000, 20000)
  val lValues: Seq[Int] = Seq(1, 2, 4, 8, 16)

  def run(spark: SparkSession, corpusName: String = "hdfs",
          nQueries: Int = 48): (Seq[Row], Map[Int, Int]) = {
    val corpus = EngineCache.corpus(spark, corpusName)
    val postings = AccuracySim.wordDocs(spark, corpus.docs)
    val queries = Workload.sampleWords(corpus.vocab, nQueries, seed = 1010)
    val accQueries = Workload.sampleWords(corpus.vocab, 300, seed = 1011)

    val rows = for (b <- bValues; l <- lValues) yield {
      val (exact, _) = AccuracySim.expectedFp(corpus.profile, b, l)
      val sketch = AccuracySim.buildSketch(postings, b, l)
      val obs = AccuracySim.observedFp(sketch, postings, accQueries)

      val config = IoUConfig(bins = b, layersOverride = Some(l))
      val built = Builder.build(spark, corpus.docs, corpus.bucket, s"fig10-$b-$l",
                                config, Some(corpus.profile))
      val engine = new AirphantEngine(corpus.store, built, config)
      val (searchMean, _) = Workload.meanP99(Workload.searchStats(engine, queries))
      val (lookupMean, _) = Workload.meanP99(Workload.lookupStats(engine, queries))
      Row(b, l, exact, obs, searchMean, lookupMean)
    }

    // What the optimizer would choose at each B with F0 = 1.
    val hist = IoUMath.hist(corpus.profile)
    val lStars = bValues.map { b =>
      b -> LayerOptimizer.minimizeLayers(b, 1.0, hist).getOrElse(-1)
    }.toMap
    (rows, lStars)
  }

  def render(rows: Seq[Row], lStars: Map[Int, Int]): String =
    TableFmt.render(
      "Fig 10: (B, L) sweep on HDFS-like -- FP, search latency, lookup latency",
      Seq("B", "L", "expected FP", "observed FP", "search mean ms", "lookup mean ms"),
      rows.map(r => Seq(r.b.toString, r.l.toString, TableFmt.fmt(r.expectedFp, 3),
                        TableFmt.fmt(r.observedFp, 3), TableFmt.fmt(r.searchMeanMs, 1),
                        TableFmt.fmt(r.lookupMeanMs, 1)))) +
      "\noptimizer L* at F0=1: " +
      lStars.toSeq.sorted.map { case (b, l) => s"B=$b -> L*=$l" }.mkString(", ") +
      " (paper: L*=2)"
}
