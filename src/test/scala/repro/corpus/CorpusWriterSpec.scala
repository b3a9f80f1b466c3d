package repro.corpus

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.cloudstore.{CloudStorage, FetchLedger, LocalCloudStorage, NetworkModel, RangeReq}

class CorpusWriterSpec extends SparkSpec {

  private def setup(bucket: String): LocalCloudStorage = {
    val store = new LocalCloudStorage(NetworkModel())
    CloudStorage.register(bucket, store)
    store
  }

  test("every document's byte range reads back to exactly its text") {
    import spark.implicits._
    val store = setup("cw-1")
    val raw = CorpusGen.unif(spark, 300, 100, 6)
    val placed = CorpusWriter.write(spark, raw, "cw-1", "c", numBlobs = 4)
    val rows = placed.select("blob", "offset", "length", "text")
      .as[(String, Long, Int, String)].collect()
    assert(rows.length == 300)
    rows.foreach { case (blob, off, len, text) =>
      val got = store.getRange(RangeReq(blob, off, len), new FetchLedger)
      assert(new String(got, "UTF-8") == text)
    }
    CloudStorage.unregister("cw-1")
  }

  test("blob layout is newline-delimited and splitBlob agrees with the frame") {
    import spark.implicits._
    val store = setup("cw-2")
    val raw = CorpusGen.diag(spark, 50)
    val placed = CorpusWriter.write(spark, raw, "cw-2", "c", numBlobs = 2)
    val byBlob = placed.select("blob", "offset", "length", "text")
      .as[(String, Long, Int, String)].collect()
      .groupBy(_._1)
    byBlob.foreach { case (blob, rows) =>
      val parsed = Parsers.splitBlob(store.getNoCost(blob))
      assert(parsed.map(t => (t._1, t._2, t._3)).toSet ==
             rows.map(r => (r._2, r._3, r._4)).toSet)
    }
    CloudStorage.unregister("cw-2")
  }

  test("doc ids are preserved and unique") {
    import spark.implicits._
    setup("cw-3")
    val placed = CorpusWriter.write(spark, CorpusGen.diag(spark, 120), "cw-3", "c", 3)
    val ids = placed.select("doc_id").as[Long].collect().sorted
    assert(ids.toSeq == (0L until 120L))
    CloudStorage.unregister("cw-3")
  }

  test("requested number of blobs is produced (modulo empty partitions)") {
    setup("cw-4")
    val store = CloudStorage.named("cw-4")
    CorpusWriter.write(spark, CorpusGen.diag(spark, 1000), "cw-4", "c", numBlobs = 8)
    val blobs = store.list().filter(_.startsWith("c/docs-"))
    assert(blobs.size == 8)
    CloudStorage.unregister("cw-4")
  }

  test("writing is idempotent under re-materialisation of the frame") {
    setup("cw-5")
    val store = CloudStorage.named("cw-5")
    val placed = CorpusWriter.write(spark, CorpusGen.diag(spark, 40), "cw-5", "c", 2)
    val sizes1 = store.list().sorted.map(store.size)
    placed.count(); placed.count() // further actions must not duplicate blobs
    val sizes2 = store.list().sorted.map(store.size)
    assert(sizes1 == sizes2)
    CloudStorage.unregister("cw-5")
  }

  test("offsets within each blob are strictly increasing with doc order") {
    import spark.implicits._
    setup("cw-6")
    val placed = CorpusWriter.write(spark, CorpusGen.unif(spark, 200, 60, 4), "cw-6", "c", 4)
    placed.select("blob", "doc_id", "offset").as[(String, Long, Long)].collect()
      .groupBy(_._1).foreach { case (_, rows) =>
        val sorted = rows.sortBy(_._2)
        assert(sorted.map(_._3).toSeq == sorted.map(_._3).sorted.toSeq)
      }
    CloudStorage.unregister("cw-6")
  }

  test("a document whose text holds a line break fails the write, naming its doc_id") {
    import spark.implicits._
    setup("cw-7")
    try {
      // Written, "a\nb" would be two documents to a full scan of its blob
      // (offsets 0 and 2) but one to a keyword scan's range read.
      val raw = Seq((3L, "a b"), (7L, "a\nb")).toDF("doc_id", "text")
      val e = intercept[Exception](CorpusWriter.write(spark, raw, "cw-7", "c", numBlobs = 2))
      val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .map(t => String.valueOf(t.getMessage))
      assert(messages.exists(_.contains("doc_id 7")), e)
    } finally CloudStorage.unregister("cw-7")
  }
}
