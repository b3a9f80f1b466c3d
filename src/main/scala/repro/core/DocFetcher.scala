package repro.core

import java.nio.charset.StandardCharsets

import scala.collection.immutable.ArraySeq

import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.corpus.{Doc, DocRef, Parsers}

/** The document-retrieval routine every engine shares (the paper runs
  * SQLite "reusing the same document retrieval routine from AIRPHANT",
  * §V-A0b): fetch candidate documents' byte ranges in one concurrent
  * batch, then filter out false positives by exact keyword matching.
  */
object DocFetcher {

  /** δ, the probability that the top-K sample of Eq. 6 holds fewer than K
    * relevant documents and must fall back to the rest: the paper's 1e-6
    * (§IV-D, §V-A0c).
    */
  val TopKDelta: Double = 1e-6

  /** Outcome of the retrieval + filtering step. */
  final case class Result(docs: Vector[Doc], fetched: Int, falsePositives: Int)

  /** The one search routine of Airphant and every baseline: resolve the
    * candidates with `lookup`, fetch all of them (`topK = None`) or a top-K
    * sample (§IV-D, with `f0`), keep the documents that satisfy
    * `keep`, and account every read of the query in one ledger.
    */
  def search(store: CloudStorage, docBlobs: Array[String], keep: String => Boolean,
             topK: Option[Int], f0: Double)
            (lookup: FetchLedger => Postings): SearchResult = {
    val ledger = new FetchLedger
    val candidates = lookup(ledger)
    val r = topK match {
      case Some(k) => fetchTopK(store, docBlobs, candidates, keep, k, f0, ledger)
      case None    => fetchAndFilter(store, docBlobs, candidates, keep, ledger)
    }
    SearchResult(r.docs, candidates.size, r.fetched, r.falsePositives, ledger.stats)
  }

  /** Fetch all `candidates` and keep those whose text satisfies `keep`. */
  def fetchAndFilter(store: CloudStorage, docBlobs: Array[String], candidates: Postings,
                     keep: String => Boolean, ledger: FetchLedger): Result =
    fetchAt(store, docBlobs, candidates, candidates.indices, keep, ledger)

  /** Fetch the `candidates` at positions `at`, in that order, in one
    * concurrent batch, and keep those whose text satisfies `keep`.
    */
  private def fetchAt(store: CloudStorage, docBlobs: Array[String], candidates: Postings,
                      at: IndexedSeq[Int], keep: String => Boolean, ledger: FetchLedger): Result = {
    if (at.isEmpty) return Result(Vector.empty, 0, 0)
    val reqs = at.map { i =>
      val key = candidates.keys(i)
      RangeReq(docBlobs(Posting.blobIdOf(key)), Posting.offsetOf(key), candidates.lengths(i))
    }
    val bytes = store.getRangesParallel(reqs, ledger)
    val docs = Vector.newBuilder[Doc]
    var kept = 0
    reqs.indices.foreach { i =>
      val text = new String(bytes(i), StandardCharsets.UTF_8)
      if (keep(text)) {
        kept += 1
        val r = reqs(i)
        docs += Doc(DocRef(r.blob, r.offset, r.length), text)
      }
    }
    Result(docs.result(), reqs.size, reqs.size - kept)
  }

  /** Top-K variant (§IV-D): fetch a sample of size R_K (Eq. 6) first; in
    * the (probability ≤ [[TopKDelta]]) event that it yields fewer than K
    * relevant documents, fall back to fetching the remainder — recall is
    * never sacrificed. The sample is a deterministic seeded shuffle so runs
    * are reproducible.
    */
  def fetchTopK(store: CloudStorage, docBlobs: Array[String], candidates: Postings,
                keep: String => Boolean, k: Int, f0: Double, ledger: FetchLedger): Result = {
    if (candidates.isEmpty) return Result(Vector.empty, 0, 0)
    val rk = IoUMath.topKSampleSize(k, candidates.size, f0, TopKDelta)
    if (rk >= candidates.size) {
      val r = fetchAndFilter(store, docBlobs, candidates, keep, ledger)
      return Result(r.docs.take(k), r.fetched, r.falsePositives)
    }
    val order = ArraySeq.unsafeWrapArray(sampleOrder(candidates.size, rk))
    val first = fetchAt(store, docBlobs, candidates, order.take(rk), keep, ledger)
    if (first.docs.size >= k) {
      Result(first.docs.take(k), first.fetched, first.falsePositives)
    } else {
      val rest = fetchAt(store, docBlobs, candidates, order.drop(rk), keep, ledger)
      Result((first.docs ++ rest.docs).take(k),
             first.fetched + rest.fetched,
             first.falsePositives + rest.falsePositives)
    }
  }

  /** The order in which [[fetchTopK]] reads `n` candidates given a sample
    * of `rk < n`: the sample first, then the rest. The sample is
    * `new Random(0xA17FA47L).shuffle(0 until n).takeRight(rk).reverse`,
    * drawn with only the first `rk` steps of that shuffle: step m swaps
    * position m − 1 with a random one below it, so the first `rk` steps fix
    * positions n − 1 down to n − rk. The array holds the shuffle's
    * positions back to front, so those come first.
    */
  private[core] def sampleOrder(n: Int, rk: Int): Array[Int] = {
    val rng = new java.util.Random(0xA17FA47L)
    val order = Array.range(n - 1, -1, -1)
    var i = 0
    while (i < rk) {
      val j = n - 1 - rng.nextInt(n - i)
      val t = order(i); order(i) = order(j); order(j) = t
      i += 1
    }
    order
  }

  /** The exact-match predicate for a single keyword. */
  def wordPredicate(word: String): String => Boolean = Parsers.containsWord(_, word)
}
