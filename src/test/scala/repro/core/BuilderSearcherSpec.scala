package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalactic.Tolerance._

import repro.{Oracle, SparkSpec}
import repro.cloudstore.{CloudStorage, FetchLedger, LocalCloudStorage, NetworkModel}
import repro.corpus.{CorpusGen, CorpusWriter, Parsers}

/** End-to-end Builder → persisted IoU Sketch → Searcher correctness.
  * Every result-bearing test is cross-checked against DuckDB evaluating
  * SQL over the exploded (word, doc_id) postings relation.
  */
class BuilderSearcherSpec extends SparkSpec {

  private val bucket = "bss"
  private val config = IoUConfig(bins = 600, f0 = 1.0)

  private lazy val store: LocalCloudStorage = {
    val s = new LocalCloudStorage(NetworkModel())
    CloudStorage.register(bucket, s)
    s
  }

  private lazy val docs: DataFrame = {
    store // force registration
    val raw = CorpusGen.unif(spark, 300, 400, 8, seed = 3)
    CorpusWriter.write(spark, raw, bucket, "corpus", numBlobs = 4)
  }

  private lazy val built: Builder.BuiltSketch =
    Builder.build(spark, docs, bucket, "iou", config)

  private lazy val searcher = new Searcher(store, built.headerBlob)

  /** L* + 2 replicated sketch (§IV-G) whose Searcher waits for L* layers. */
  private lazy val replicated: Builder.BuiltSketch =
    Builder.build(spark, docs, bucket, "iourep", config.copy(extraLayers = 2))

  private lazy val replicatedSearcher =
    new Searcher(store, replicated.headerBlob, waitLayers = Some(replicated.optimizedLayers))

  /** (word, doc_id) relation where doc_id = "blob:offset" (the posting id). */
  private lazy val postingsDf: DataFrame = {
    import spark.implicits._
    docs.select(concat($"blob", lit(":"), $"offset") as "doc_id",
                explode(array_distinct(split($"text", "\\s+"))) as "word")
      .filter(length($"word") > 0)
      .cache()
  }

  private lazy val vocab: Array[String] = {
    import spark.implicits._
    postingsDf.select("word").distinct().as[String].collect().sorted
  }

  private def resultDf(docIds: Seq[String]): DataFrame = {
    import spark.implicits._
    docIds.toDF("doc_id")
  }

  private def sqlFor(word: String) = s"SELECT doc_id FROM postings WHERE word = '$word'"

  test("optimizer chose a small layer count for the F0=1 budget") {
    assert(built.optimizedLayers >= 1 && built.optimizedLayers <= 3)
    assert(built.layers == built.optimizedLayers)
    assert(built.binsPerLayer == config.iouBins / built.optimizedLayers)
  }

  test("search results equal DuckDB ground truth for sampled words (oracle)") {
    vocab.indices.by(vocab.length / 15 max 1).map(vocab).foreach { w =>
      val r = searcher.search(w)
      Oracle.assertEquivalent(resultDf(r.docs.map(_.ref.docId)), sqlFor(w),
                              "postings" -> postingsDf)
    }
  }

  test("NO FALSE NEGATIVES and perfect precision over the whole vocabulary") {
    import spark.implicits._
    val truth = postingsDf.as[(String, String)].collect()
      .groupBy(_._2).view.mapValues(_.map(_._1).toSet).toMap
    vocab.foreach { w =>
      val got = searcher.search(w).docs.map(_.ref.docId).toSet
      assert(got == truth(w), s"word $w: got ${got.size}, want ${truth(w).size}")
    }
  }

  test("candidate lists contain few false positives on average (F0 = 1)") {
    val fps = vocab.take(200).map(w => searcher.search(w).falsePositives)
    val avg = fps.sum.toDouble / fps.size
    assert(avg <= 5.0, s"avg FP $avg — way above the F0=1 budget")
  }

  test("returned documents all contain the query word (filter really ran)") {
    vocab.take(30).foreach { w =>
      searcher.search(w).docs.foreach(d => assert(Parsers.containsWord(d.text, w)))
    }
  }

  test("a regular-word lookup is exactly ONE concurrent batch") {
    val w = vocab.find(w => !searcher.mht.commonWords.contains(w)).get
    val ledger = new FetchLedger
    searcher.lookup(w, ledger)
    val st = ledger.stats
    assert(st.roundTripSteps == 1)
    assert(st.waitMs === 50.0 +- 1e-6) // one wave of L parallel requests
  }

  test("end-to-end search is at most lookup + one doc batch (+ top-K fallback)") {
    vocab.take(50).foreach { w =>
      val r = searcher.search(w)
      assert(r.stats.roundTripSteps <= 2, s"$w took ${r.stats.roundTripSteps} steps")
    }
  }

  test("a word absent from the corpus usually needs NO network at all") {
    // With 300 bins/layer and ~400 words, some layer bin is often empty for
    // an unknown word; in that case the MHT alone proves absence.
    val probes = (0 until 200).map(i => s"unknown-word-$i")
    val noNetwork = probes.count { w =>
      val ledger = new FetchLedger
      val r = searcher.lookup(w, ledger)
      ledger.stats.roundTripSteps == 0 && r.isEmpty
    }
    assert(noNetwork > 0, "empty-bin fast path never triggered")
    // And regardless, full search of unknown words returns nothing.
    probes.take(20).foreach(w => assert(searcher.search(w).docs.isEmpty))
  }

  test("common words get exact postings lists (§IV-E)") {
    assert(built.commonWordCount == config.commonBins)
    assert(searcher.mht.commonWords.size == config.commonBins)
    searcher.mht.commonWords.keys.take(5).foreach { w =>
      val r = searcher.search(w)
      assert(r.falsePositives == 0, s"common word $w had FPs")
      Oracle.assertEquivalent(resultDf(r.docs.map(_.ref.docId)), sqlFor(w),
                              "postings" -> postingsDf)
    }
  }

  test("top-K returns exactly K relevant docs when enough exist") {
    import spark.implicits._
    val freq = postingsDf.groupBy("word").count().as[(String, Long)].collect()
    val w = freq.filter(_._2 >= 12).maxBy(_._2)._1
    val r = searcher.search(w, topK = Some(10), config)
    assert(r.docs.size == 10)
    r.docs.foreach(d => assert(Parsers.containsWord(d.text, w)))
  }

  test("top-K fetches fewer documents than a full query for frequent words") {
    import spark.implicits._
    val freq = postingsDf.groupBy("word").count().as[(String, Long)].collect()
    val w = freq.maxBy(_._2)._1
    val full = searcher.search(w)
    val topk = searcher.search(w, topK = Some(1), config)
    assert(topk.fetched < full.fetched, s"topK fetched ${topk.fetched} of ${full.fetched}")
  }

  test("top-K larger than the result set degrades to a full query") {
    val w = vocab.head
    val full = searcher.search(w)
    val topk = searcher.search(w, topK = Some(100000), config)
    assert(topk.docs.map(_.ref.docId).toSet == full.docs.map(_.ref.docId).toSet)
  }

  test("boolean AND equals DuckDB INTERSECT (oracle)") {
    val Seq(a, b) = vocab.slice(10, 12).toSeq
    val r = searcher.searchBoolean(BoolQuery.And(Seq(BoolQuery.Term(a), BoolQuery.Term(b))))
    Oracle.assertEquivalent(
      resultDf(r.docs.map(_.ref.docId)),
      s"${sqlFor(a)} INTERSECT ${sqlFor(b)}",
      "postings" -> postingsDf)
  }

  test("boolean OR equals DuckDB UNION (oracle)") {
    val Seq(a, b) = vocab.slice(20, 22).toSeq
    val r = searcher.searchBoolean(BoolQuery.Or(Seq(BoolQuery.Term(a), BoolQuery.Term(b))))
    Oracle.assertEquivalent(
      resultDf(r.docs.map(_.ref.docId)),
      s"${sqlFor(a)} UNION ${sqlFor(b)}",
      "postings" -> postingsDf)
  }

  test("nested boolean (a AND b) OR c equals DuckDB set algebra (oracle)") {
    val Seq(a, b, c) = vocab.slice(30, 33).toSeq
    val q = BoolQuery.Or(Seq(
      BoolQuery.And(Seq(BoolQuery.Term(a), BoolQuery.Term(b))), BoolQuery.Term(c)))
    val r = searcher.searchBoolean(q)
    Oracle.assertEquivalent(
      resultDf(r.docs.map(_.ref.docId)),
      s"SELECT doc_id FROM (${sqlFor(a)} INTERSECT ${sqlFor(b)}) UNION ${sqlFor(c)}",
      "postings" -> postingsDf)
  }

  test("boolean query fetches all terms' superposts in one batch") {
    val Seq(a, b, c) = vocab.slice(40, 43).toSeq
    val r = searcher.searchBoolean(BoolQuery.And(Seq(
      BoolQuery.Term(a), BoolQuery.Term(b), BoolQuery.Term(c))))
    assert(r.stats.roundTripSteps <= 2) // one superpost batch + one doc batch
  }

  test("build is deterministic: same corpus and config, same structure") {
    val again = Builder.build(spark, docs, bucket, "iou2", config)
    val a = Mht.deserialize(store.getNoCost(built.headerBlob))
    val b = Mht.deserialize(store.getNoCost(again.headerBlob))
    assert(a.layers == b.layers && a.binsPerLayer == b.binsPerLayer)
    assert(a.seeds.toSeq == b.seeds.toSeq)
    assert(a.commonWords.keySet == b.commonWords.keySet)
    (0 until a.layers).foreach { l =>
      (0 until a.binsPerLayer).foreach { bin =>
        // Same bins are populated, with identically sized superposts
        // (blob names differ only by the build prefix).
        val (pa, pb) = (a.binPointers(l)(bin), b.binPointers(l)(bin))
        assert((pa == null) == (pb == null), s"bin ($l, $bin) presence differs")
        if (pa != null) assert(pa.length == pb.length, s"bin ($l, $bin) size differs")
      }
    }
  }

  test("corpus layout and index bytes do not depend on what the session ran before") {
    // Range partitioning samples its bounds with a seed taken from the RDD
    // id, and samples only above 300 rows per output partition: 4000 docs
    // in 8 blobs, and 1 KiB blocks so the superposts span many blocks.
    val raw = CorpusGen.unif(spark, 4000, 800, 6, seed = 21)
    def writeAndBuild(bucket: String): (LocalCloudStorage, Set[(Long, String, Long, Int)]) = {
      import spark.implicits._
      val s = new LocalCloudStorage(NetworkModel())
      CloudStorage.register(bucket, s)
      try {
        val docs = CorpusWriter.write(spark, raw, bucket, "corpus", numBlobs = 8)
        val placed = docs.select("doc_id", "blob", "offset", "length")
          .as[(Long, String, Long, Int)].collect().toSet
        val b = Builder.build(spark, docs, bucket, "iou", config.copy(blockTargetBytes = 1024))
        assert(Mht.deserialize(s.getNoCost(b.headerBlob)).blockBlobs.length >= 2)
        docs.unpersist()
        (s, placed)
      } finally CloudStorage.unregister(bucket)
    }
    val (a, placedA) = writeAndBuild("bss-layout-a")
    val (b, placedB) = writeAndBuild("bss-layout-b")
    assert((placedA diff placedB).isEmpty, s"${(placedA diff placedB).size} documents moved")
    assert(a.list().sorted == b.list().sorted)
    a.list().foreach(n => assert(a.getNoCost(n).sameElements(b.getNoCost(n)), n))
  }

  test("layersOverride=1 builds the naive hash table variant") {
    val ht = Builder.build(spark, docs, bucket, "ht", config.copy(layersOverride = Some(1)))
    assert(ht.layers == 1)
    val s1 = new Searcher(store, ht.headerBlob)
    // same answers after filtering, but more candidates before it
    vocab.take(25).foreach { w =>
      val rht = s1.search(w)
      val rio = searcher.search(w)
      assert(rht.docs.map(_.ref.docId).toSet == rio.docs.map(_.ref.docId).toSet)
    }
    val fpHt = vocab.take(100).map(w => s1.search(w).falsePositives).sum
    val fpIo = vocab.take(100).map(w => searcher.search(w).falsePositives).sum
    assert(fpHt >= fpIo, s"hash table FP $fpHt < IoU FP $fpIo")
  }

  test("replication (§IV-G): L+ layers, wait for L*, still exact after filter") {
    assert(replicated.layers == replicated.optimizedLayers + 2)
    vocab.take(40).foreach { w =>
      val got = replicatedSearcher.search(w).docs.map(_.ref.docId).toSet
      val want = searcher.search(w).docs.map(_.ref.docId).toSet
      assert(got == want, s"replicated searcher wrong for $w")
    }
  }

  test("replication tolerates stragglers more cheaply than waiting for all") {
    val jittery = NetworkModel(tailProbability = 0.2, tailMultiplier = 20.0)
    store.setModel(jittery)
    try {
      val rep = Builder.build(spark, docs, bucket, "iourep2", config.copy(extraLayers = 2))
      val sAll = new Searcher(store, rep.headerBlob) // waits for all L+2
      val sRep = new Searcher(store, rep.headerBlob, waitLayers = Some(rep.optimizedLayers))
      val words = vocab.take(100).filterNot(sAll.mht.commonWords.contains)
      def lookupWait(s: Searcher) = words.map { w =>
        val l = new FetchLedger; s.lookup(w, l); l.stats.waitMs
      }.sum
      assert(lookupWait(sRep) < lookupWait(sAll))
    } finally store.setModel(NetworkModel())
  }

  test("lookup and a one-word lookupBatch are the same path: same postings, same cost") {
    val absent = (0 until 20).map(i => s"absent-word-$i")
    Seq(searcher, replicatedSearcher).foreach { s =>
      (vocab.toSeq ++ s.mht.commonWords.keys ++ absent).foreach { w =>
        val (l1, l2) = (new FetchLedger, new FetchLedger)
        assert(s.lookup(w, l1) == s.lookupBatch(Seq(w), l2)(w), w)
        assert(l1.stats == l2.stats, w)
      }
    }
  }

  test("replicated sketch: a multi-term AND still equals DuckDB INTERSECT (oracle)") {
    import spark.implicits._
    // Words of one document, so the intersection is not trivially empty.
    val doc = postingsDf.select("doc_id").as[String].collect().min
    val Seq(a, b, c) = postingsDf.filter($"doc_id" === doc).select("word").as[String]
      .collect().sorted.take(3).toSeq
    val r = replicatedSearcher.searchBoolean(BoolQuery.And(Seq(
      BoolQuery.Term(a), BoolQuery.Term(b), BoolQuery.Term(c))))
    assert(r.docs.nonEmpty)
    Oracle.assertEquivalent(
      resultDf(r.docs.map(_.ref.docId)),
      s"${sqlFor(a)} INTERSECT ${sqlFor(b)} INTERSECT ${sqlFor(c)}",
      "postings" -> postingsDf)
  }

  test("header and superposts account for all persisted index bytes") {
    val indexBlobs = store.list().filter(_.startsWith("iou/"))
    assert(indexBlobs.exists(_.endsWith("header")))
    assert(indexBlobs.exists(_.contains("superposts-")))
    assert(built.indexBytes == indexBlobs.map(store.size).sum)
    assert(built.indexBytes > 0)
  }

  test("searcher initialization costs exactly one request (the header)") {
    val s2 = new Searcher(store, built.headerBlob)
    assert(s2.initStats.roundTripSteps == 1)
    assert(s2.initStats.bytes == store.size(built.headerBlob))
  }

  test("invalid waitLayers is rejected") {
    intercept[IllegalArgumentException](
      new Searcher(store, built.headerBlob, waitLayers = Some(built.layers + 1)))
  }
}
