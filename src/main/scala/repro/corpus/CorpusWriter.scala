package repro.corpus

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.cloudstore.CloudStorage

/** Packs a corpus of documents into cloud-storage blobs.
  *
  * Documents are newline-delimited inside each blob (the paper's default
  * corpus layout, §III-A: "original documents may be stored in a single
  * blob (e.g., delimited by line breaks)"). One blob is written per Spark
  * partition so the write itself is parallel; the returned DataFrame has
  * one row per document with its byte range, which is what the Builder's
  * corpus-document parser would otherwise recompute.
  */
object CorpusWriter {

  /** Schema of the returned frame: doc_id, blob, offset, length, text. */
  val columns: Seq[String] = Seq("doc_id", "blob", "offset", "length", "text")

  /** Write `docs` (columns: doc_id Long, text String) into
    * `bucket` under `prefix`, as `numBlobs` newline-delimited blobs.
    * The target store must already be registered under `bucket` in
    * [[CloudStorage.named]]. A text holding a `\n` fails the write.
    */
  def write(spark: SparkSession, docs: DataFrame, bucket: String, prefix: String,
            numBlobs: Int = 8): DataFrame = {
    import spark.implicits._
    val arranged = docs
      .select($"doc_id".cast("long"), $"text".cast("string"))
      .repartition(numBlobs, $"doc_id")
      .sortWithinPartitions($"doc_id")

    val placed = arranged
      .mapPartitions { it =>
        // Partition id is recovered from the task context; hash partitioning
        // assigns each doc_id to the same blob whatever the session ran before.
        val pid = org.apache.spark.TaskContext.getPartitionId()
        val blobName = s"$prefix/docs-$pid"
        val buf = new java.io.ByteArrayOutputStream()
        val rows = Vector.newBuilder[(Long, String, Long, Int, String)]
        it.foreach { row =>
          val id = row.getLong(0)
          val text = row.getString(1)
          // A line break inside a text would split it into two documents
          // when the blob is re-split by `Parsers.splitBlob`.
          require(text.indexOf('\n') < 0, s"doc_id $id: text contains a line break, " +
            "the document delimiter of corpus blobs")
          val bytes = text.getBytes("UTF-8")
          rows += ((id, blobName, buf.size().toLong, bytes.length, text))
          buf.write(bytes)
          buf.write('\n')
        }
        val out = rows.result()
        if (out.nonEmpty) CloudStorage.named(bucket).put(blobName, buf.toByteArray)
        out.iterator
      }(org.apache.spark.sql.Encoders.tuple(
        org.apache.spark.sql.Encoders.scalaLong,
        org.apache.spark.sql.Encoders.STRING,
        org.apache.spark.sql.Encoders.scalaLong,
        org.apache.spark.sql.Encoders.scalaInt,
        org.apache.spark.sql.Encoders.STRING))
      .toDF(columns: _*)

    // Materialise now: the side effect (blob uploads) must happen exactly
    // once, not on every downstream action.
    placed.cache()
    placed.count()
    placed
  }
}
