package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cloudstore.CloudStorage
import repro.core.{BinPointer, BlockCompactor}

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
