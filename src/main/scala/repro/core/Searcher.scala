package repro.core

import repro.cloudstore.{CloudStorage, FetchLedger, FetchStats}
import repro.corpus.Doc

/** One query's outcome plus accuracy accounting. */
final case class SearchResult(docs: Vector[Doc], candidates: Int, fetched: Int,
                              falsePositives: Int, stats: FetchStats)

/** AIRPHANT Searcher (§III-C0c): the lightweight query-side component.
  *
  * Initialization downloads the header blob once (MHT seeds + bin
  * pointers + string tables) and keeps it in memory. Each query then
  * needs exactly:
  *   1. L hash evaluations (no I/O) to get superpost pointers,
  *   2. ONE concurrent batch of range reads for the L superposts,
  *   3. an intersection (no I/O),
  *   4. one concurrent batch of document range reads, and
  *   5. an exact-match filter that removes all false positives.
  *
  * With `waitLayers < mht.layers` (built-in replication, §IV-G), step 2
  * issues all L+ requests but only waits for the fastest `waitLayers`.
  */
final class Searcher(store: CloudStorage, headerBlob: String, waitLayers: Option[Int] = None) {

  private val initLedger = new FetchLedger
  /** The in-memory MHT, loaded once per corpus. */
  val mht: Mht = Mht.load(store, headerBlob, initLedger)

  /** Network cost of initialization (one request; ~2 MB at the paper's B). */
  def initStats: FetchStats = initLedger.stats

  private val k: Int = waitLayers.getOrElse(mht.layers)
  require(k >= 1 && k <= mht.layers, s"waitLayers must be in [1, ${mht.layers}]")

  /** Term-index lookup (the paper's Fig. 14 observable): resolve the final
    * postings list for `word` — common-word exact fetch, or the
    * batch-fetch-then-intersect of IoU Sketch.
    */
  def lookup(word: String, ledger: FetchLedger): Postings = lookupBatch(Seq(word), ledger)(word)

  /** End-to-end search: lookup → fetch documents → exact filter.
    * `topK = Some(K)` enables the sampled fetch of §IV-D with `f0` taken
    * from the given config.
    */
  def search(word: String, topK: Option[Int] = None,
             config: IoUConfig = IoUConfig()): SearchResult =
    DocFetcher.search(store, mht.docBlobs, DocFetcher.wordPredicate(word), topK,
                      config.f0)(lookup(word, _))

  /** Boolean query (§IV-F): Q(∨_i ∧_j w_ij) = ∪_i ∩_j Q(w_ij). All term
    * superposts across the whole expression are fetched in ONE concurrent
    * batch; set algebra and the final exact filter follow.
    */
  def searchBoolean(query: BoolQuery, config: IoUConfig = IoUConfig()): SearchResult =
    DocFetcher.search(store, mht.docBlobs, BoolQuery.matches(query, _), None,
                      config.f0) { ledger =>
      BoolQuery.candidates(query, lookupBatch(BoolQuery.terms(query).toSeq.sorted, ledger))
    }

  /** Resolve several words' final postings lists with a single batch of
    * concurrent superpost reads: plan each word's pointers (a common word's
    * exact list, a regular word's L bins, nothing for a word an empty bin
    * proves absent), fetch them, then decode and intersect per word.
    *
    * A batch that holds one regular word waits only for the fastest
    * `waitLayers` of its L+ ranges (§IV-G). A multi-term batch on a
    * replicated sketch still waits for all of them: a per-word k-of-n inside
    * one batch needs a new [[CloudStorage]] method.
    */
  def lookupBatch(words: Seq[String], ledger: FetchLedger): Map[String, Postings] = {
    val plans = words.distinct.map { w =>
      w -> mht.commonWords.get(w).map(Vector(_)).orElse(mht.pointersFor(w)).getOrElse(Vector.empty)
    }
    val toFetch = plans.filter(_._2.nonEmpty)
    val reqs = toFetch.flatMap(_._2).map(mht.rangeReq)
    val fetched: Seq[Seq[Array[Byte]]] = toFetch match {
      case Seq() => Nil
      case Seq((_, ptrs)) if k < ptrs.size => Seq(store.getRangesKofN(reqs, k, ledger).map(_._2))
      case _ =>
        val it = store.getRangesParallel(reqs, ledger).iterator
        toFetch.map { case (_, ptrs) => ptrs.map(_ => it.next()) }
    }
    val resolved = toFetch.map(_._1).zip(fetched).map { case (w, bytes) =>
      w -> (bytes.map(PostingsCodec.decode) match {
        case Seq(exact) => exact
        case lists      => Posting.intersectSorted(lists)
      })
    }.toMap
    plans.map { case (w, _) => w -> resolved.getOrElse(w, Postings.empty) }.toMap
  }
}
