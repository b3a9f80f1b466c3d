package repro.core

import java.io.ByteArrayOutputStream

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Encoder, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.cloudstore.CloudStorage
import repro.corpus.Parsers

/** The one compaction scheme every term index is built with (§IV-C):
  * documents are tokenized into (word, posting) rows, each word's postings
  * are keyed by the index keys it is posted under, and one shuffle packs
  * each key's postings list into block blobs addressed by
  * (block, offset, length). The IoU Sketch [[Builder]] keys by
  * (layer, bin); the exact baselines key by word, so their postings are
  * "compressed identically to AIRPHANT's" (§V-A0b).
  */
object BlockCompactor {

  /** Tokenize the corpus frame (blob, offset, length, text).
    *
    * Returns the sorted document-blob string table (blob names compressed to
    * int ids, §IV-C) and a frame of (blobId, offset, length, word) with one
    * row per distinct word of each document. Words are [[Parsers.tokens]],
    * the column form of [[Parsers.words]], so the exact filter sees the same
    * tokens the index was built from.
    */
  def tokenize(spark: SparkSession, docs: DataFrame): (Array[String], DataFrame) = {
    import spark.implicits._
    val docBlobs = docs.select($"blob").distinct().as[String].collect().sorted
    val bcBlobIdx = spark.sparkContext.broadcast(docBlobs.zipWithIndex.toMap)
    val blobId = udf((b: String) => bcBlobIdx.value(b))
    val words = docs.select(blobId($"blob") as "blobId", $"offset", $"length",
                            explode(array_distinct(Parsers.tokens($"text"))) as "word")
    (docBlobs, words)
  }

  /** Pack `postings` — the `keys` columns plus blobId, offset and length,
    * one row per (key, document) — into block blobs.
    *
    * The rows are hash-partitioned on `keys` into `numBlocks` partitions, so
    * every key lands in one block and the layout does not depend on what the
    * session ran before, and sorted on (keys, blobId, offset). Each partition
    * cuts a postings list wherever the key changes, drops a posting equal to
    * the one before it (two words that share a key and a document), encodes
    * each list with [[PostingsCodec]] and writes them from the executor as
    * one blob `<blobPrefix>-<partition>` in `bucket`. Only pointers travel
    * back to the driver.
    *
    * @param keyOf reads a row's key from the first `keys.size` columns
    * @return block blob names indexed by dense block id (partitions that
    *         wrote nothing get no id), and one pointer per key
    */
  def compact[K: Encoder](postings: DataFrame, keys: Seq[String], numBlocks: Int,
                          bucket: String, blobPrefix: String)
                         (keyOf: Row => K): (Array[String], Array[(K, BinPointer)]) = {
    val keyCols = keys.map(col)
    val nKeys = keys.size
    val enc = Encoders.tuple(implicitly[Encoder[K]], Encoders.scalaInt, Encoders.scalaInt,
                             Encoders.scalaInt)
    val rows = postings
      .select(keyCols :+ col("blobId") :+ col("offset") :+ col("length"): _*)
      .repartition(numBlocks, keyCols: _*)
      .sortWithinPartitions(keyCols :+ col("blobId") :+ col("offset"): _*)
      .mapPartitions { it =>
        val pid = TaskContext.getPartitionId()
        val blob = s"$blobPrefix-$pid"
        val buf = new ByteArrayOutputStream()
        val out = Vector.newBuilder[(K, Int, Int, Int)]
        val list = Vector.newBuilder[Posting]
        var key: Option[K] = None
        var last: Posting = null
        def cut(): Unit = key.foreach { k =>
          val bytes = PostingsCodec.encode(list.result())
          out += ((k, pid, narrowOffset(blob, buf.size().toLong, bytes.length), bytes.length))
          buf.write(bytes, 0, bytes.length)
          list.clear()
        }
        it.foreach { row =>
          val k = keyOf(row)
          if (!key.contains(k)) { cut(); key = Some(k); last = null }
          val p = Posting(row.getInt(nKeys), row.getLong(nKeys + 1), row.getInt(nKeys + 2))
          if (p != last) list += p
          last = p
        }
        cut()
        val res = out.result()
        if (res.nonEmpty) CloudStorage.named(bucket).put(blob, buf.toByteArray)
        res.iterator
      }(enc)
      .collect()

    val pids = rows.map(_._2).distinct.sorted
    val dense = pids.zipWithIndex.toMap
    val pointers = rows.map { case (k, pid, off, len) => k -> BinPointer(dense(pid), off, len) }
    (pids.map(pid => s"$blobPrefix-$pid"), pointers)
  }

  /** Checked narrowing of a range's start inside block `blob` to the Int a
    * [[BinPointer]] stores. A range ending past `Int.MaxValue` would wrap
    * into a wrong pointer, so it fails the build instead.
    */
  def narrowOffset(blob: String, offset: Long, length: Int): Int = {
    require(offset >= 0 && offset + length <= Int.MaxValue,
      s"block $blob: range at offset $offset (+$length bytes) passes Int.MaxValue")
    offset.toInt
  }
}
