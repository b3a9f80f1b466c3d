package repro.core

import java.nio.charset.StandardCharsets

import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.corpus.{Doc, DocRef, Parsers}

/** The document-retrieval routine every engine shares (the paper runs
  * SQLite "reusing the same document retrieval routine from AIRPHANT",
  * §V-A0b): fetch candidate documents' byte ranges in one concurrent
  * batch, then filter out false positives by exact keyword matching.
  */
object DocFetcher {

  /** Outcome of the retrieval + filtering step. */
  final case class Result(docs: Vector[Doc], fetched: Int, falsePositives: Int)

  /** The one search routine of Airphant and every baseline: resolve the
    * candidates with `lookup`, fetch all of them (`topK = None`) or a top-K
    * sample (§IV-D, with `f0` and `delta`), keep the documents that satisfy
    * `keep`, and account every read of the query in one ledger.
    */
  def search(store: CloudStorage, docBlobs: Array[String], keep: String => Boolean,
             topK: Option[Int], f0: Double, delta: Double)
            (lookup: FetchLedger => IndexedSeq[Posting]): SearchResult = {
    val ledger = new FetchLedger
    val candidates = lookup(ledger)
    val r = topK match {
      case Some(k) => fetchTopK(store, docBlobs, candidates, keep, k, f0, delta, ledger)
      case None    => fetchAndFilter(store, docBlobs, candidates, keep, ledger)
    }
    SearchResult(r.docs, candidates.size, r.fetched, r.falsePositives, ledger.stats)
  }

  /** Fetch all `candidates` and keep those whose text satisfies `keep`. */
  def fetchAndFilter(store: CloudStorage, docBlobs: Array[String],
                     candidates: IndexedSeq[Posting], keep: String => Boolean,
                     ledger: FetchLedger): Result = {
    if (candidates.isEmpty) return Result(Vector.empty, 0, 0)
    val reqs = candidates.map(p => RangeReq(docBlobs(p.blobId), p.offset, p.length))
    val bytes = store.getRangesParallel(reqs, ledger)
    val docs = Vector.newBuilder[Doc]
    var kept = 0
    candidates.indices.foreach { i =>
      val text = new String(bytes(i), StandardCharsets.UTF_8)
      if (keep(text)) {
        kept += 1
        val r = reqs(i)
        docs += Doc(DocRef(r.blob, r.offset, r.length), text)
      }
    }
    Result(docs.result(), candidates.size, candidates.size - kept)
  }

  /** Top-K variant (§IV-D): fetch a sampled prefix of size R_K (Eq. 6)
    * first; in the (probability ≤ δ) event that it yields fewer than K
    * relevant documents, fall back to fetching the remainder — recall is
    * never sacrificed. The sample is a deterministic seeded shuffle so
    * runs are reproducible.
    */
  def fetchTopK(store: CloudStorage, docBlobs: Array[String],
                candidates: IndexedSeq[Posting], keep: String => Boolean,
                k: Int, f0: Double, delta: Double, ledger: FetchLedger): Result = {
    if (candidates.isEmpty) return Result(Vector.empty, 0, 0)
    val rk = IoUMath.topKSampleSize(k, candidates.size, f0, delta)
    if (rk >= candidates.size) {
      val r = fetchAndFilter(store, docBlobs, candidates, keep, ledger)
      return Result(r.docs.take(k), r.fetched, r.falsePositives)
    }
    val order = sampleOrder(candidates.size)
    def pick(from: Int, until: Int) = (from until until).map(i => candidates(order(i)))
    val first = fetchAndFilter(store, docBlobs, pick(0, rk), keep, ledger)
    if (first.docs.size >= k) {
      Result(first.docs.take(k), first.fetched, first.falsePositives)
    } else {
      val rest = fetchAndFilter(store, docBlobs, pick(rk, order.length), keep, ledger)
      Result((first.docs ++ rest.docs).take(k),
             first.fetched + rest.fetched,
             first.falsePositives + rest.falsePositives)
    }
  }

  /** The order in which [[fetchTopK]] samples `n` candidates: the
    * permutation `new Random(0xA17FA47L).shuffle(0 until n)`, drawn with
    * the same `nextInt` sequence but on a primitive index array.
    */
  private[core] def sampleOrder(n: Int): Array[Int] = {
    val rng = new scala.util.Random(0xA17FA47L)
    val order = Array.range(0, n)
    var m = n
    while (m >= 2) {
      val k = rng.nextInt(m)
      val t = order(m - 1); order(m - 1) = order(k); order(k) = t
      m -= 1
    }
    order
  }

  /** The exact-match predicate for a single keyword. */
  def wordPredicate(word: String): String => Boolean = Parsers.containsWord(_, word)
}
