package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable.ArrayBuffer

import repro.cloudstore.{CloudStorage, FetchLedger, LocalCloudStorage, NetworkModel, RangeReq}

class DocFetcherSpec extends AnyFunSuite {

  /** Tiny hand-built corpus blob: `n` docs, half contain "hit". */
  private def fixture(n: Int = 20): (LocalCloudStorage, Array[String], Postings) = {
    val store = new LocalCloudStorage(NetworkModel())
    val texts = (0 until n).map(i => if (i % 2 == 0) s"hit doc$i" else s"miss doc$i")
    val buf = new java.io.ByteArrayOutputStream()
    val postings = Vector.newBuilder[Posting]
    texts.foreach { t =>
      val b = t.getBytes("UTF-8")
      postings += Posting(0, buf.size().toLong, b.length)
      buf.write(b); buf.write('\n')
    }
    store.put("docs", buf.toByteArray)
    (store, Array("docs"), Postings.from(postings.result()))
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
    val r = DocFetcher.fetchAndFilter(store, blobs, Postings.empty,
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

  test("fetchTopK with fallback reads every candidate exactly once across the sample and the rest") {
    val (inner, blobs, ps) = fixture(200)
    val batches = ArrayBuffer.empty[Seq[RangeReq]]
    val counting = new CloudStorage {
      def put(name: String, bytes: Array[Byte]): Unit = inner.put(name, bytes)
      def size(name: String): Long = inner.size(name)
      def list(): Seq[String] = inner.list()
      def getRangesKofN(reqs: Seq[RangeReq], k: Int, ledger: FetchLedger): Seq[(Int, Array[Byte])] = {
        batches += reqs; inner.getRangesKofN(reqs, k, ledger)
      }
    }
    // Nothing matches, so the sample always falls short of K.
    val k = 5
    val r = DocFetcher.fetchTopK(counting, blobs, ps, _ => false, k, f0 = 1.0, new FetchLedger)
    assert(r.docs.isEmpty && r.fetched == ps.size && r.falsePositives == ps.size)
    val rk = IoUMath.topKSampleSize(k, ps.size, 1.0, DocFetcher.TopKDelta)
    assert(batches.map(_.size) == Seq(rk, ps.size - rk))
    assert(batches.flatten.map(q => (q.blob, q.offset, q.length)).sorted ==
           ps.map(p => ("docs", p.offset, p.length)).sorted)
  }

  test("the top-K sample is Random(0xA17FA47L).shuffle(0 until n).takeRight(rk).reverse") {
    for (n <- Seq(2, 17, 1000, 1724, 4096); rk <- Seq(1, 23, n - 1).distinct if rk < n) {
      val want = new scala.util.Random(0xA17FA47L).shuffle((0 until n).toVector).takeRight(rk).reverse
      val order = DocFetcher.sampleOrder(n, rk)
      assert(order.take(rk).toVector == want, s"n = $n, rk = $rk")
      assert(order.sorted.toVector == (0 until n), s"n = $n, rk = $rk: the rest is not every other position")
    }
  }

  test("wordPredicate is exact-token semantics") {
    val p = DocFetcher.wordPredicate("air")
    assert(p("the air is cold"))
    assert(!p("the airport is far"))
  }
}
