package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.core.{BinPointer, BlockCompactor, DocFetcher, Posting, Postings, PostingsCodec,
                   SearchResult}

/** Exact per-word postings lists persisted in compacted block blobs —
  * the storage substrate of every *non-statistical* baseline (skip list,
  * B-tree, Elasticsearch-like). The paper compresses all baselines'
  * postings identically to AIRPHANT's (§V-A0b), which building them with
  * the same [[BlockCompactor]] reproduces.
  */
object ExactPostings {

  /** @param words     sorted dictionary
    * @param pointers  word → its exact postings list's bytes
    * @param blockBlobs block id → blob name (string table)
    * @param docBlobs  posting blobId → document blob name
    */
  final case class Built(
      words: Array[String],
      pointers: Map[String, BinPointer],
      blockBlobs: Array[String],
      docBlobs: Array[String],
  ) {
    def bytesOf(store: CloudStorage): Long =
      blockBlobs.map(store.size).sum

    /** Read and decode the exact postings list `ptr` points to. */
    def read(store: CloudStorage, ptr: BinPointer, ledger: FetchLedger): Postings =
      PostingsCodec.decode(store.getRange(
        RangeReq(blockBlobs(ptr.block), ptr.offset.toLong, ptr.length), ledger))

    /** Read `word`'s postings through its entry in the dictionary `leaf`
      * (sorted by term), or none if the leaf does not hold it.
      */
    def readLeaf(store: CloudStorage, leaf: IndexedSeq[(String, BinPointer)], word: String,
                 ledger: FetchLedger): IndexedSeq[Posting] = {
      val (term, ptr) = leaf(floor(leaf, word))
      if (term == word) read(store, ptr, ledger) else Postings.empty
    }

    /** Search `word` through the shared routine. An exact list holds no
      * false positives, so top-K samples with F0 = 0.
      */
    def search(store: CloudStorage, word: String, topK: Option[Int])
              (lookup: FetchLedger => IndexedSeq[Posting]): SearchResult =
      DocFetcher.search(store, docBlobs, DocFetcher.wordPredicate(word), topK, f0 = 0.0)(lookup)
  }

  /** Index of the last of the `entries`, sorted by term, whose term is
    * <= `word`, or 0 if `word` precedes them all: the child a hierarchical
    * dictionary descends to, or the leaf entry that may equal `word`.
    */
  def floor(entries: IndexedSeq[(String, Any)], word: String): Int = {
    if (word < entries(0)._1) return 0
    var lo = 0; var hi = entries.size - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (entries(mid)._1 <= word) lo = mid else hi = mid - 1
    }
    lo
  }

  /** An access-ordered map that keeps only its `capacity` most recently used
    * entries: the dictionary cache of the B-tree and the skip list.
    */
  def lru[K, V](capacity: Int): java.util.LinkedHashMap[K, V] =
    new java.util.LinkedHashMap[K, V](16, 0.75f, true) {
      override def removeEldestEntry(e: java.util.Map.Entry[K, V]): Boolean = size() > capacity
    }

  /** Target size of each postings block blob: the superpost blocks' 1 MiB
    * default (§IV-C), since the paper compresses every baseline's postings
    * the same way as Airphant's (§V-A0b).
    */
  private val BlockTargetBytes = 1 << 20

  /** Compact exact postings per word into block blobs under `prefix` in
    * the registered `bucket`.
    */
  def build(spark: SparkSession, docs: DataFrame, bucket: String, prefix: String): Built = {
    import spark.implicits._

    val (docBlobs, words) = BlockCompactor.tokenize(spark, docs)

    val approxBytes = docs.count() * 40L // rough: distinct words/doc * posting bytes
    val numBlocks = math.max(1, math.min(128,
      math.ceil(approxBytes.toDouble / BlockTargetBytes).toInt))

    val (blockBlobs, pointers) = BlockCompactor.compact(
      words, Seq("word"), numBlocks, bucket, s"$prefix/postings")(_.getString(0))
    Built(pointers.map(_._1).sorted, pointers.toMap, blockBlobs, docBlobs)
  }
}
