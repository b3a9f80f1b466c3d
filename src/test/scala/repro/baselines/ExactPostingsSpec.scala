package repro.baselines

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.cloudstore.{CloudStorage, FetchLedger, LocalCloudStorage, NetworkModel, RangeReq}
import repro.core.PostingsCodec
import repro.corpus.CorpusGen
import repro.exp.Corpora

class ExactPostingsSpec extends SparkSpec {

  private lazy val corpus = Corpora.materialize(
    spark, "ep", "ep-bucket", CorpusGen.unif(spark, 200, 150, 6, seed = 31))

  private lazy val built = ExactPostings.build(spark, corpus.docs, corpus.bucket, "exact")

  test("dictionary covers exactly the corpus vocabulary, sorted") {
    assert(built.words.toSeq == corpus.vocab.toSeq)
    assert(built.words.toSeq == built.words.toSeq.sorted)
    assert(built.pointers.keySet == corpus.vocab.toSet)
  }

  test("each pointer decodes to the word's true postings") {
    import spark.implicits._
    val truth = corpus.docs
      .select(concat($"blob", lit(":"), $"offset") as "doc_id",
              explode(array_distinct(split($"text", "\\s+"))) as "word")
      .as[(String, String)].collect()
      .groupBy(_._2).view.mapValues(_.map(_._1).toSet).toMap
    val store = corpus.store
    built.words.take(60).foreach { w =>
      val ptr = built.pointers(w)
      val bytes = store.getRange(
        RangeReq(built.blockBlobs(ptr.block), ptr.offset.toLong, ptr.length), new FetchLedger)
      val got = PostingsCodec.decode(bytes)
        .map(p => s"${built.docBlobs(p.blobId)}:${p.offset}").toSet
      assert(got == truth(w), w)
    }
  }

  test("postings are packed into block blobs with valid dense block ids") {
    assert(built.blockBlobs.nonEmpty)
    built.blockBlobs.foreach(b => assert(corpus.store.size(b) > 0))
    built.pointers.values.foreach { p =>
      assert(p.block >= 0 && p.block < built.blockBlobs.length)
      assert(p.offset + p.length <= corpus.store.size(built.blockBlobs(p.block)))
    }
  }

  test("doc blob string table covers every posting's blob") {
    assert(built.docBlobs.toSeq == built.docBlobs.toSeq.sorted)
    assert(built.docBlobs.toSet ==
      corpus.store.list().filter(_.startsWith("ep/docs-")).toSet)
  }

  test("bytesOf sums exactly the block blob sizes") {
    assert(built.bytesOf(corpus.store) == built.blockBlobs.map(corpus.store.size).sum)
  }

  test("build is deterministic") {
    val again = ExactPostings.build(spark, corpus.docs, corpus.bucket, "exact2")
    assert(again.words.toSeq == built.words.toSeq)
    assert(again.pointers.view.mapValues(_.length).toMap ==
           built.pointers.view.mapValues(_.length).toMap)
  }

  test("floor finds the last entry whose term is <= the word") {
    val es = Vector("b" -> 0, "d" -> 1, "f" -> 2, "h" -> 3)
    assert(ExactPostings.floor(es, "a") == 0) // before the first term
    assert(ExactPostings.floor(es, "b") == 0) // on the first term
    assert(ExactPostings.floor(es, "e") == 1) // between two terms
    assert(ExactPostings.floor(es, "ff") == 2)
    assert(ExactPostings.floor(es, "h") == 3) // on the last term
    assert(ExactPostings.floor(es, "z") == 3) // past the last term
    val one = Vector("m" -> 0)
    Seq("a", "m", "z").foreach(w => assert(ExactPostings.floor(one, w) == 0, w))
  }
}
