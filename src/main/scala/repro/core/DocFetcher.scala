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
            (lookup: FetchLedger => IndexedSeq[Posting]): SearchResult = {
    val ledger = new FetchLedger
    val candidates = lookup(ledger)
    val r = topK match {
      case Some(k) => fetchTopK(store, docBlobs, candidates, keep, k, f0, ledger)
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
    * first; in the (probability ≤ [[TopKDelta]]) event that it yields fewer
    * than K relevant documents, fall back to fetching the remainder — recall
    * is never sacrificed. The sample is a deterministic seeded shuffle so
    * runs are reproducible.
    */
  def fetchTopK(store: CloudStorage, docBlobs: Array[String],
                candidates: IndexedSeq[Posting], keep: String => Boolean,
                k: Int, f0: Double, ledger: FetchLedger): Result = {
    if (candidates.isEmpty) return Result(Vector.empty, 0, 0)
    val rk = IoUMath.topKSampleSize(k, candidates.size, f0, TopKDelta)
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
    * the same `nextInt` sequence on a [[Lcg]] and a primitive index array.
    */
  private[core] def sampleOrder(n: Int): Array[Int] = {
    val rng = new Lcg(0xA17FA47L)
    val order = Array.range(0, n)
    var m = n
    while (m >= 2) {
      val k = rng.nextInt(m)
      val t = order(m - 1); order(m - 1) = order(k); order(k) = t
      m -= 1
    }
    order
  }

  /** `java.util.Random`'s documented generator on a plain field: the 48-bit
    * linear congruential generator and `nextInt(bound)` exactly as that
    * class specifies them, so the sequence is the same, without the
    * compare-and-set `java.util.Random` pays on every draw.
    */
  private[core] final class Lcg(seed0: Long) {
    private final val Multiplier = 0x5DEECE66DL
    private final val Mask = (1L << 48) - 1
    private var seed = (seed0 ^ Multiplier) & Mask

    private def next31(): Int = {
      seed = (seed * Multiplier + 0xBL) & Mask
      (seed >>> 17).toInt
    }

    def nextInt(bound: Int): Int = {
      if (bound <= 0) throw new IllegalArgumentException(s"bound $bound is not positive")
      val m = bound - 1
      var u = next31()
      if ((bound & m) == 0) ((bound * u.toLong) >> 31).toInt
      else {
        var r = u % bound
        while (u - r + m < 0) { u = next31(); r = u % bound }
        r
      }
    }
  }

  /** The exact-match predicate for a single keyword. */
  def wordPredicate(word: String): String => Boolean = Parsers.containsWord(_, word)
}
