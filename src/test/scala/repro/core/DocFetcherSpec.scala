package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.cloudstore.{FetchLedger, LocalCloudStorage, NetworkModel}

class DocFetcherSpec extends AnyFunSuite {

  /** Tiny hand-built corpus blob: 20 docs, half contain "hit". */
  private def fixture(): (LocalCloudStorage, Array[String], Vector[Posting]) = {
    val store = new LocalCloudStorage(NetworkModel())
    val texts = (0 until 20).map(i => if (i % 2 == 0) s"hit doc$i" else s"miss doc$i")
    val buf = new java.io.ByteArrayOutputStream()
    val postings = Vector.newBuilder[Posting]
    texts.foreach { t =>
      val b = t.getBytes("UTF-8")
      postings += Posting(0, buf.size().toLong, b.length)
      buf.write(b); buf.write('\n')
    }
    store.put("docs", buf.toByteArray)
    (store, Array("docs"), postings.result())
  }

  test("fetchAndFilter keeps exactly the matching documents") {
    val (store, blobs, ps) = fixture()
    val r = DocFetcher.fetchAndFilter(store, blobs, ps,
                                      DocFetcher.wordPredicate("hit"), new FetchLedger)
    assert(r.fetched == 20)
    assert(r.docs.size == 10)
    assert(r.falsePositives == 10)
    r.docs.foreach(d => assert(d.text.startsWith("hit")))
  }

  test("fetchAndFilter of no candidates is free") {
    val (store, blobs, _) = fixture()
    val ledger = new FetchLedger
    val r = DocFetcher.fetchAndFilter(store, blobs, Vector.empty,
                                      DocFetcher.wordPredicate("hit"), ledger)
    assert(r.docs.isEmpty && r.fetched == 0 && ledger.stats.roundTripSteps == 0)
  }

  test("fetchAndFilter is one concurrent batch regardless of candidate count") {
    val (store, blobs, ps) = fixture()
    val ledger = new FetchLedger
    DocFetcher.fetchAndFilter(store, blobs, ps, _ => true, ledger)
    assert(ledger.stats.roundTripSteps == 1)
  }

  test("fetched document text matches its byte range exactly") {
    val (store, blobs, ps) = fixture()
    val r = DocFetcher.fetchAndFilter(store, blobs, ps, _ => true, new FetchLedger)
    r.docs.zip(ps).foreach { case (d, p) =>
      assert(d.ref.offset == p.offset && d.ref.length == p.length)
      assert(d.ref.blob == "docs")
    }
  }

  test("fetchTopK returns exactly K when more than K match") {
    val (store, blobs, ps) = fixture()
    val r = DocFetcher.fetchTopK(store, blobs, ps, DocFetcher.wordPredicate("hit"),
                                 k = 3, f0 = 1.0, ledger = new FetchLedger)
    assert(r.docs.size == 3)
    r.docs.foreach(d => assert(d.text.startsWith("hit")))
  }

  test("fetchTopK falls back to the remainder when the sample is short") {
    // All 10 relevant docs requested; sample can't contain 10 without
    // fetching nearly everything, and recall must never be sacrificed.
    val (store, blobs, ps) = fixture()
    val ledger = new FetchLedger
    val r = DocFetcher.fetchTopK(store, blobs, ps, DocFetcher.wordPredicate("hit"),
                                 k = 10, f0 = 1.0, ledger = ledger)
    assert(r.docs.size == 10)
    assert(r.fetched == 20, "fallback should have fetched everything")
  }

  test("fetchTopK with K beyond the corpus returns every match") {
    val (store, blobs, ps) = fixture()
    val r = DocFetcher.fetchTopK(store, blobs, ps, DocFetcher.wordPredicate("hit"),
                                 k = 500, f0 = 1.0, ledger = new FetchLedger)
    assert(r.docs.size == 10)
  }

  test("fetchTopK sampling is deterministic") {
    val (store, blobs, ps) = fixture()
    def run() = DocFetcher.fetchTopK(store, blobs, ps, _ => true,
                                     k = 2, f0 = 1.0, ledger = new FetchLedger).docs.map(_.ref.docId)
    assert(run() == run())
  }

  test("the top-K sample order is Random(0xA17FA47L).shuffle of the candidate indices") {
    Seq(0, 1, 2, 17, 1000, 1724, 4096).foreach { n =>
      val want = new scala.util.Random(0xA17FA47L).shuffle((0 until n).toVector)
      assert(DocFetcher.sampleOrder(n).toVector == want, s"n = $n")
    }
  }

  test("Lcg.nextInt draws java.util.Random's sequence, rejection loop and power-of-two branch included") {
    Seq(1 << 30, (1 << 30) + 1, Int.MaxValue, 1724).foreach { bound =>
      val want = new java.util.Random(0xA17FA47L)
      val got = new DocFetcher.Lcg(0xA17FA47L)
      (0 until 10000).foreach(i => assert(got.nextInt(bound) == want.nextInt(bound), s"bound $bound, draw $i"))
    }
  }

  test("wordPredicate is exact-token semantics") {
    val p = DocFetcher.wordPredicate("air")
    assert(p("the air is cold"))
    assert(!p("the airport is far"))
  }
}
