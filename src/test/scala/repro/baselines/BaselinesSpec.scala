package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.cloudstore.{CloudStorage, FetchLedger, LocalCloudStorage, NetworkModel}
import repro.core.IoUConfig
import repro.corpus.{CorpusGen, CorpusWriter}
import repro.exp.{BuiltCorpus, Corpora, Engines}

/** All five engines must agree with each other and with DuckDB on every
  * query; they are allowed to differ only in network cost — which is the
  * paper's experimental variable, so the cost orderings are tested too.
  */
class BaselinesSpec extends SparkSpec {

  private val config = IoUConfig(bins = 600, f0 = 1.0)

  private lazy val corpus: BuiltCorpus = Corpora.materialize(
    spark, "bl", "bl-bucket", CorpusGen.zipf(spark, 400, 500, 8, seed = 5))

  private lazy val engines = Engines.build(spark, corpus, config)

  private lazy val postingsDf: DataFrame = {
    import spark.implicits._
    corpus.docs.select(concat($"blob", lit(":"), $"offset") as "doc_id",
                       explode(array_distinct(split($"text", "\\s+"))) as "word")
      .filter(length($"word") > 0).cache()
  }

  private def sampleWords(n: Int): Seq[String] =
    corpus.vocab.indices.by(math.max(1, corpus.vocab.length / n)).map(corpus.vocab).toSeq

  test("every engine returns exactly the DuckDB ground truth (oracle)") {
    import spark.implicits._
    sampleWords(8).foreach { w =>
      engines.all.foreach { e =>
        val ids = e.search(w).docs.map(_.ref.docId)
        Oracle.assertEquivalent(
          ids.toDF("doc_id"),
          s"SELECT doc_id FROM postings WHERE word = '$w'",
          "postings" -> postingsDf)
      }
    }
  }

  test("all engines agree pairwise on a larger word sample") {
    sampleWords(40).foreach { w =>
      val results = engines.all.map(e => e.search(w).docs.map(_.ref.docId).toSet)
      assert(results.distinct.size == 1, s"engines disagree on '$w'")
    }
  }

  test("exact engines' lookup equals true postings; sketch lookups are supersets") {
    import spark.implicits._
    val truth = postingsDf.as[(String, String)].collect()
      .groupBy(_._2).view.mapValues(_.map(_._1).toSet).toMap
    sampleWords(30).foreach { w =>
      val docBlobsA = engines.airphant.searcher.mht.docBlobs
      def ids(e: SearchEngine) = {
        val ps = e.lookup(w, new FetchLedger)
        ps.map(p => s"${docBlobsA(p.blobId)}:${p.offset}").toSet
      }
      assert(ids(engines.skipList) == truth(w), s"skip list wrong for $w")
      assert(ids(engines.bTree) == truth(w), s"b-tree wrong for $w")
      assert(ids(engines.elastic) == truth(w), s"elastic wrong for $w")
      assert(truth(w).subsetOf(ids(engines.airphant)), s"airphant dropped postings for $w")
      assert(truth(w).subsetOf(ids(engines.hashTable)), s"hash table dropped postings for $w")
    }
  }

  test("unknown words yield empty results everywhere") {
    engines.all.foreach { e =>
      assert(e.search("zzz-not-a-word").docs.isEmpty, e.name)
    }
  }

  test("skip list needs MORE sequential steps than Airphant (dependent reads)") {
    // Cold dictionary cache per query: at this tiny scale the whole
    // dictionary would otherwise fit in the cache (the paper's corpora
    // are far larger than any cache).
    val words = sampleWords(50).filterNot(engines.airphant.searcher.mht.commonWords.contains)
    def steps(e: SearchEngine) = words.map { w =>
      engines.skipList.clearCache()
      val l = new FetchLedger; e.lookup(w, l); l.stats.roundTripSteps
    }.sum
    assert(steps(engines.skipList) > steps(engines.airphant))
  }

  test("B-tree page cache reduces round trips on repeated traversals") {
    engines.bTree.clearCache()
    val w = sampleWords(5).head
    val l1 = new FetchLedger; engines.bTree.lookup(w, l1)
    val l2 = new FetchLedger; engines.bTree.lookup(w, l2)
    assert(l2.stats.roundTripSteps <= l1.stats.roundTripSteps)
  }

  test("airphant mean search latency is never beaten at this scale") {
    // At tiny corpus scale the B-tree can cache its whole dictionary (the
    // paper's appendix: baselines are competitive on small corpora), so
    // Airphant must only strictly beat the dependent-read engines here.
    val words = sampleWords(60)
    def meanMs(e: SearchEngine) = words.map { w =>
      engines.clearCaches() // cold per query — see the skip-list steps test
      e.search(w, Some(10)).stats.totalMs
    }.sum / words.size
    val air = meanMs(engines.airphant)
    Seq[SearchEngine](engines.skipList, engines.elastic).foreach { e =>
      assert(meanMs(e) > air, s"${e.name} not slower than Airphant")
    }
    assert(meanMs(engines.bTree) >= air - 1e-6)
  }

  test("hash table downloads more bytes than Airphant (false positives)") {
    val words = sampleWords(60)
    def bytes(e: SearchEngine) = words.map(w => e.search(w).stats.bytes).sum
    assert(bytes(engines.hashTable) > bytes(engines.airphant))
  }

  test("elastic-like pays its snapshot mount on top of the skip list") {
    val w = sampleWords(3).head
    val sl = engines.skipList.search(w).stats
    val es = engines.elastic.search(w).stats
    assert(es.roundTripSteps > sl.roundTripSteps)
    assert(es.totalMs > sl.totalMs)
  }

  test("elastic-like search is its mount faults plus the skip list's search") {
    sampleWords(6).foreach { w =>
      engines.clearCaches()
      val mount = new FetchLedger
      engines.elastic.mountFaults(w, mount)
      val want = mount.stats + engines.skipList.search(w, Some(10)).stats
      engines.clearCaches()
      val es = engines.elastic.search(w, Some(10)).stats
      assert(es.roundTripSteps == want.roundTripSteps && es.bytes == want.bytes, w)
      assert(math.abs(es.waitMs - want.waitMs) <= 1e-9, w)
      assert(math.abs(es.downloadMs - want.downloadMs) <= 1e-9, w)
    }
  }

  test("every engine reports a positive index size") {
    engines.all.foreach(e => assert(e.indexBytes > 0, e.name))
  }

  test("Engines.build gives the hash table a single-layer sketch") {
    assert(engines.hashTable.built.layers == 1)
    assert(engines.hashTable.name == "HashTable (IoU, L=1)")
  }

  test("engine names are distinct (display labels)") {
    val names = engines.all.map(_.name)
    assert(names.distinct.size == names.size)
  }
}
