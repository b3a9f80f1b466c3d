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

    /** Search `word` through the shared routine. An exact list holds no
      * false positives, so top-K samples with F0 = 0.
      */
    def search(store: CloudStorage, word: String, topK: Option[Int])
              (lookup: FetchLedger => IndexedSeq[Posting]): SearchResult =
      DocFetcher.search(store, docBlobs, DocFetcher.wordPredicate(word), topK,
                        f0 = 0.0, delta = 1e-6)(lookup)
  }

  /** Index of the last of the sorted `terms` that is <= `word`, or 0 if
    * `word` precedes them all: the child a hierarchical dictionary descends to.
    */
  def floor(terms: IndexedSeq[String], word: String): Int = {
    if (word < terms(0)) return 0
    var lo = 0; var hi = terms.size - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (terms(mid) <= word) lo = mid else hi = mid - 1
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

  /** Aggregate exact postings per word and write them as block blobs under
    * `prefix` in the registered `bucket`.
    */
  def build(spark: SparkSession, docs: DataFrame, bucket: String, prefix: String,
            blockTargetBytes: Int = 1 << 20): Built = {
    import spark.implicits._

    val (docBlobs, words) = BlockCompactor.tokenize(spark, docs)
    val perWord = words.groupBy($"word").agg(BlockCompactor.postings)

    val approxBytes = docs.count() * 40L // rough: distinct words/doc * posting bytes
    val numBlocks = math.max(1, math.min(128,
      math.ceil(approxBytes.toDouble / blockTargetBytes).toInt))

    val (blockBlobs, pointers) = BlockCompactor.compact(
      perWord, Seq("word"), numBlocks, bucket, s"$prefix/postings")(_.getString(0))
    Built(pointers.map(_._1).sorted, pointers.toMap, blockBlobs, docBlobs)
  }
}
