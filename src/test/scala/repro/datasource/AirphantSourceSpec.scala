package repro.datasource

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.datasources.v2.BatchScanExec
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.core.{Builder, IoUConfig, Searcher}
import repro.corpus.CorpusGen
import repro.exp.{BuiltCorpus, Corpora}

/** The `airphant` DataSourceV2: keyword pushdown resolves through the IoU
  * Sketch on the driver; parallel scan tasks fetch and exact-filter the
  * candidate documents; results must equal DuckDB over the postings
  * relation.
  */
class AirphantSourceSpec extends SparkSpec {

  private val config = IoUConfig(bins = 500, f0 = 1.0)

  private lazy val corpus: BuiltCorpus = Corpora.materialize(
    spark, "ds", "ds-bucket", CorpusGen.unif(spark, 250, 300, 7, seed = 11))

  private lazy val built: Builder.BuiltSketch =
    Builder.build(spark, corpus.docs, corpus.bucket, "iou", config, Some(corpus.profile))

  private def table(): DataFrame =
    spark.read.format("airphant")
      .option("bucket", corpus.bucket)
      .option("header", built.headerBlob)
      .load()

  private lazy val pairsDf: DataFrame = {
    import spark.implicits._
    corpus.docs.select(concat($"blob", lit(":"), $"offset") as "doc_id",
                       explode(array_distinct(split($"text", "\\s+"))) as "word")
      .filter(length($"word") > 0).cache()
  }

  test("schema is the (word, document) relation") {
    assert(table().schema.fieldNames.toSeq ==
      Seq("word", "doc_id", "blob", "offset", "length", "text"))
  }

  test("the removed keyword option is rejected") {
    val scan = spark.read.format("airphant")
      .option("bucket", corpus.bucket)
      .option("header", built.headerBlob)
      .option("keyword", corpus.vocab(3))
      .load()
      .select("doc_id")
    val e = intercept[IllegalArgumentException](scan.collect())
    assert(e.getMessage.contains("word = "), e.getMessage)
  }

  test("pushed EqualTo filter matches DuckDB (oracle)") {
    corpus.vocab.take(5).foreach { w =>
      val got = table().filter(col("word") === w).select("doc_id")
      Oracle.assertEquivalent(got, s"SELECT doc_id FROM pairs WHERE word = '$w'",
                              "pairs" -> pairsDf)
    }
  }

  test("pushed In filter matches DuckDB (oracle)") {
    val ws = corpus.vocab.slice(10, 13)
    val got = table().filter(col("word").isin(ws: _*)).select("word", "doc_id")
    Oracle.assertEquivalent(
      got,
      s"SELECT word, doc_id FROM pairs WHERE word IN (${ws.map(w => s"'$w'").mkString(",")})",
      "pairs" -> pairsDf)
  }

  test("keyword predicate is pushed into the scan (plan inspection)") {
    val w = corpus.vocab.head
    val df = table().filter(col("word") === w)
    val scans = df.queryExecution.executedPlan.collect { case s: BatchScanExec => s }
    assert(scans.nonEmpty, "no BatchScanExec in plan")
    // The scan planned keyword partitions, not a full corpus scan.
    val parts = scans.head.inputRDD.getNumPartitions
    assert(parts <= 4, s"expected few keyword partitions, got $parts")
  }

  test("full scan (no keyword) enumerates the whole (word, doc) relation") {
    val got = table().select("word", "doc_id")
    Oracle.assertEquivalent(got, "SELECT word, doc_id FROM pairs", "pairs" -> pairsDf)
  }

  test("unknown keyword returns an empty frame") {
    assert(table().filter(col("word") === "zz-not-here").count() == 0)
  }

  test("count by word equals document frequency") {
    import spark.implicits._
    val w = corpus.vocab(7)
    val want = pairsDf.filter($"word" === w).count()
    assert(table().filter($"word" === w).count() == want)
  }

  test("returned text really contains the keyword (executor-side filter ran)") {
    import spark.implicits._
    val w = corpus.vocab(9)
    table().filter($"word" === w).select("text").as[String].collect()
      .foreach(t => assert(t.split("\\s+").contains(w)))
  }

  test("additional predicates compose with the pushed keyword") {
    import spark.implicits._
    val w = corpus.vocab(2)
    val all = table().filter($"word" === w)
    val filtered = all.filter($"length" > 10)
    assert(filtered.count() == all.collect().count(_.getAs[Int]("length") > 10))
  }

  test("sliceDocs sets the documents per input partition, in any letter case") {
    val searcher = new Searcher(corpus.store, built.headerBlob)
    val (w, candidates) = corpus.vocab.iterator
      .map(w => (w, searcher.lookup(w, new FetchLedger).size)).find(_._2 >= 3).get
    def partitions(key: String): Int =
      spark.read.format("airphant")
        .option("bucket", corpus.bucket)
        .option("header", built.headerBlob)
        .option(key, "1")
        .load().filter(col("word") === w)
        .queryExecution.executedPlan.collect { case s: BatchScanExec => s }
        .head.inputRDD.getNumPartitions
    assert(partitions("sliceDocs") == candidates)
    assert(partitions("slicedocs") == candidates)
  }

  test("sliceDocs below 1 is rejected with a message that names it") {
    val e = intercept[Exception] {
      spark.read.format("airphant")
        .option("bucket", corpus.bucket)
        .option("header", built.headerBlob)
        .option("sliceDocs", "0")
        .load().filter(col("word") === corpus.vocab(1)).collect()
    }
    val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
    assert(messages.exists(m => m != null && m.contains("sliceDocs")), e.getMessage)
  }

  test("missing required options fail fast") {
    val e = intercept[Exception] {
      spark.read.format("airphant").load().collect()
    }
    assert(e.getMessage.contains("bucket") || e.getMessage.contains("header"))
  }

  test("offsets and lengths in rows are valid ranges of their blob") {
    import spark.implicits._
    val w = corpus.vocab(5)
    table().filter($"word" === w)
      .select("blob", "offset", "length").as[(String, Long, Int)].collect()
      .foreach { case (blob, off, len) =>
        assert(off >= 0 && off + len <= corpus.store.size(blob))
      }
  }

  test("a keyword query fetches the header once") {
    val headerGets = new java.util.concurrent.atomic.AtomicInteger
    val inner = corpus.store
    val counting = new CloudStorage {
      def put(name: String, bytes: Array[Byte]): Unit = inner.put(name, bytes)
      def size(name: String): Long = inner.size(name)
      def list(): Seq[String] = inner.list()
      def get(name: String, ledger: FetchLedger): Array[Byte] = {
        if (name == built.headerBlob) headerGets.incrementAndGet()
        inner.get(name, ledger)
      }
      def getRange(req: RangeReq, ledger: FetchLedger): Array[Byte] = inner.getRange(req, ledger)
      def getRangesParallel(reqs: Seq[RangeReq], ledger: FetchLedger): Seq[Array[Byte]] =
        inner.getRangesParallel(reqs, ledger)
      def getRangesKofN(reqs: Seq[RangeReq], k: Int, ledger: FetchLedger): Seq[(Int, Array[Byte])] =
        inner.getRangesKofN(reqs, k, ledger)
      def getNoCost(name: String): Array[Byte] = inner.getNoCost(name)
    }
    CloudStorage.register("ds-counting-bucket", counting)
    try {
      val w = corpus.vocab(4)
      val rows = spark.read.format("airphant")
        .option("bucket", "ds-counting-bucket")
        .option("header", built.headerBlob)
        .load()
        .filter(col("word") === w).select("doc_id").collect()
      assert(rows.nonEmpty)
      assert(headerGets.get == 1)
    } finally CloudStorage.unregister("ds-counting-bucket")
  }
}
