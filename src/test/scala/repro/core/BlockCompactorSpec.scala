package repro.core

import org.apache.spark.sql.functions.{col, hash, lit, pmod}
import org.scalacheck.Gen

import repro.{GenChecks, SparkSpec}
import repro.cloudstore.{CloudStorage, FetchLedger, LocalCloudStorage, NetworkModel, RangeReq}
import repro.corpus.{CorpusProfile, Parsers}

class BlockCompactorSpec extends SparkSpec with GenChecks {

  test("narrowOffset keeps ranges up to Int.MaxValue and rejects any past it") {
    assert(BlockCompactor.narrowOffset("ix/postings-3", 12L, 5) == 12)
    assert(BlockCompactor.narrowOffset("ix/postings-3", Int.MaxValue.toLong, 0) == Int.MaxValue)
    val e = intercept[IllegalArgumentException](
      BlockCompactor.narrowOffset("ix/postings-3", 1L << 31, 10))
    assert(e.getMessage.contains("ix/postings-3"))
    assert(e.getMessage.contains((1L << 31).toString))
    intercept[IllegalArgumentException](
      BlockCompactor.narrowOffset("ix/postings-3", Int.MaxValue.toLong, 1))
  }

  test("compact cuts each key's sorted, duplicate-free list from unordered rows") {
    import spark.implicits._
    val store = new LocalCloudStorage(NetworkModel())
    CloudStorage.register("bc-compact", store)
    try {
      val rng = new scala.util.Random(5)
      // A posting's length follows from its (blobId, offset), as in a corpus.
      val distinct = (for {
        k <- 0 until 20
        _ <- 0 until 1 + rng.nextInt(30)
        (b, o) = (rng.nextInt(3), rng.nextInt(60).toLong)
      } yield (s"w$k", b, o, (o % 7).toInt)).distinct
      val rows = rng.shuffle(distinct ++ distinct.filter(_ => rng.nextInt(3) == 0))
      assert(rows.size > distinct.size)
      val df = rows.toDF("word", "blobId", "offset", "length")
      val numBlocks = 8
      val (blobs, pointers) = BlockCompactor.compact(df, Seq("word"), numBlocks, "bc-compact",
                                                     "ix/postings")(_.getString(0))

      val want = distinct.groupBy(_._1).view
        .mapValues(_.map { case (_, b, o, l) => Posting(b, o, l) }.sorted).toMap
      assert(pointers.map(_._1).sorted.toSeq == want.keys.toSeq.sorted)
      pointers.foreach { case (w, p) =>
        val bytes = store.getRange(RangeReq(blobs(p.block), p.offset.toLong, p.length),
                                   new FetchLedger)
        assert(PostingsCodec.decode(bytes) == want(w), w)
      }

      // The partitions the keys hash to, by the expression `repartition` uses.
      val pids = df.select(pmod(hash(col("word")), lit(numBlocks))).distinct().as[Int]
        .collect().sorted
      assert(pids.length >= 3)
      assert(blobs.toSeq == pids.toSeq.map(pid => s"ix/postings-$pid"))
      assert(store.list().sorted == blobs.toSeq.sorted)
      assert(pointers.map(_._2.block).distinct.sorted.toSeq == blobs.indices)
    } finally CloudStorage.unregister("bc-compact")
  }

  test("compact drops a repeated (key, posting) row but fails on one with another length") {
    import spark.implicits._
    val store = new LocalCloudStorage(NetworkModel())
    CloudStorage.register("bc-dup", store)
    try {
      def compact(rows: Seq[(String, Int, Long, Int)]) =
        BlockCompactor.compact(rows.toDF("word", "blobId", "offset", "length"), Seq("word"), 2,
                               "bc-dup", "dup/postings")(_.getString(0))
      val (blobs, pointers) = compact(Seq(("w", 0, 10L, 4), ("v", 0, 10L, 4), ("w", 1, 3L, 2),
                                          ("w", 0, 10L, 4)))
      val lists = pointers.toMap.view.mapValues { p =>
        PostingsCodec.decode(store.getRange(RangeReq(blobs(p.block), p.offset.toLong, p.length),
                                            new FetchLedger))
      }.toMap
      assert(lists == Map("w" -> Vector(Posting(0, 10, 4), Posting(1, 3, 2)),
                          "v" -> Vector(Posting(0, 10, 4))))

      val e = intercept[Exception](compact(Seq(("w", 0, 10L, 4), ("w", 0, 10L, 5))))
      val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toList
      assert(causes.exists(_.isInstanceOf[IllegalArgumentException]), causes)
    } finally CloudStorage.unregister("bc-dup")
  }

  // Whitespace the tokenizer splits on, and tokens that only look like it:
  // U+00A0 and U+2003 are not `\s`, so both tokenizers must keep them inside words.
  private val space = Gen.oneOf(" ", "  ", "   ", "\t", " \t ", "\r", "\f", "\u000B")
  // Any Unicode scalar value (surrogate code points are not characters).
  private val codePoint = Gen.oneOf(Gen.choose(0, 0xD7FF), Gen.choose(0xE000, 0x10FFFF))
    .map(cp => new String(Character.toChars(cp)))
  private val token = Gen.frequency(
    4 -> Gen.identifier,
    2 -> Gen.oneOf("na\u00EFve", "\u65E5\u672C\u8A9E", "\uD83D\uDE00", "a\u00A0b", "\u00A0",
                   "x\u2003y", "\u2003", "\u0085", "\u2028", "e\u0301"),
    1 -> Gen.listOf(codePoint).map(_.mkString),
  )
  private val text: Gen[String] = Gen.frequency(
    1 -> Gen.const(""),
    1 -> space,
    8 -> (for {
      lead  <- Gen.oneOf(Gen.const(""), space)
      toks  <- Gen.listOf(token)
      seps  <- Gen.listOfN(toks.size, space)
      trail <- Gen.oneOf(Gen.const(""), space)
    } yield lead + toks.zip(seps).map { case (t, s) => t + s }.mkString + trail),
  )

  test("index tokenization and the exact filter's tokenizer give the same word sets") {
    import spark.implicits._
    forAllG(Gen.listOfN(60, text), trials = 5) { texts =>
      val docs = texts.zipWithIndex.map { case (t, i) => (i.toLong, s"b${i % 3}", i.toLong, t.length, t) }
        .toDF("doc_id", "blob", "offset", "length", "text")
      val (docBlobs, numDocs, words) = BlockCompactor.tokenize(spark, docs)
      assert(numDocs == texts.size)
      assert(docBlobs.toSeq == texts.indices.map(i => s"b${i % 3}").distinct.sorted)
      val got = words.select($"blobId", $"offset", $"word").as[(Int, Long, String)].collect()
      got.foreach { case (blobId, off, _) => assert(docBlobs(blobId) == s"b${off % 3}") }
      val byDoc = got.groupBy(_._2).view.mapValues(_.map(_._3)).toMap
      texts.zipWithIndex.foreach { case (t, i) =>
        val indexed = byDoc.getOrElse(i.toLong, Array.empty[String])
        assert(indexed.length == indexed.distinct.length, s"duplicate words in doc $i")
        assert(indexed.toSet == Parsers.words(t).toSet, s"doc $i: ${t.map(_.toInt.toHexString)}")
      }
      // The corpus profile, which sizes the sketch, counts the same tokens.
      val tokens = texts.map(Parsers.words)
      val hist = tokens.map(_.distinct.length).filter(_ > 0).groupBy(identity).view.mapValues(_.size.toLong).toMap
      if (hist.isEmpty) intercept[IllegalArgumentException](CorpusProfile.profile(spark, docs))
      else {
        val p = CorpusProfile.profile(spark, docs)
        assert(p.nWords == tokens.map(_.length.toLong).sum)
        assert(p.nTerms == tokens.flatten.distinct.length.toLong)
        assert(p.distinctHist == hist)
      }
    }
  }
}
