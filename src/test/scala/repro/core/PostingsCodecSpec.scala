package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.GenChecks

class PostingsCodecSpec extends AnyFunSuite with GenChecks {

  private val genPosting: Gen[Posting] = for {
    blob <- Gen.choose(0, 50)
    off <- Gen.choose(0L, 1L << 39)
    len <- Gen.choose(0, 1 << 20)
  } yield Posting(blob, off, len)

  private def packed(ps: Seq[Posting]): Postings = Postings.from(ps.toIndexedSeq)
  private def encode(ps: Seq[Posting]): Array[Byte] = PostingsCodec.encode(packed(ps))

  private val genSorted: Gen[Vector[Posting]] =
    Gen.listOf(genPosting).map(ps =>
      ps.distinctBy(p => (p.blobId, p.offset)).sorted.toVector)

  test("encode/decode is the identity on sorted postings lists") {
    forAllG(genSorted, trials = 200) { ps =>
      assert(PostingsCodec.decode(encode(ps)) == ps)
    }
  }

  test("empty list encodes to a single varint") {
    val bytes = encode(Vector.empty)
    assert(bytes.length == 1)
    assert(PostingsCodec.decode(bytes).isEmpty)
  }

  test("encoding rejects unsorted input") {
    val bad = Vector(Posting(1, 10, 5), Posting(0, 0, 5))
    intercept[IllegalArgumentException](encode(bad))
    intercept[IllegalArgumentException](PostingsCodec.encode(new Postings(Array(-1L), Array(5))))
  }

  test("encoding rejects duplicate postings") {
    val bad = Vector(Posting(0, 10, 5), Posting(0, 10, 5))
    intercept[IllegalArgumentException](encode(bad))
  }

  test("delta encoding is compact for dense same-blob postings") {
    val dense = Vector.tabulate(1000)(i => Posting(0, i.toLong * 120, 119))
    val bytes = encode(dense)
    // ~3 bytes/posting (offset delta 120 + length 119 are 1-2 byte varints)
    assert(bytes.length < 5000, s"encoded ${bytes.length} bytes")
  }

  test("varint round trip across magnitudes") {
    val out = new java.io.ByteArrayOutputStream()
    val values = Seq(0L, 1L, 127L, 128L, 300L, 1L << 20, 1L << 40, Long.MaxValue)
    values.foreach(PostingsCodec.writeVarLong(out, _))
    val r = new PostingsCodec.Reader(out.toByteArray)
    values.foreach(v => assert(r.readVarLong() == v))
    assert(r.remaining == 0)
  }

  test("negative varint is rejected") {
    intercept[IllegalArgumentException](
      PostingsCodec.writeVarLong(new java.io.ByteArrayOutputStream(), -1L))
  }

  test("string round trip including unicode") {
    val out = new java.io.ByteArrayOutputStream()
    val strings = Seq("", "hello", "héllo wörld", "日本語", "a" * 1000)
    strings.foreach(PostingsCodec.writeString(out, _))
    val r = new PostingsCodec.Reader(out.toByteArray)
    strings.foreach(s => assert(r.readString() == s))
  }

  test("posting ordering is (blobId, offset) lexicographic") {
    assert(Posting(0, 5, 1) < Posting(0, 6, 1))
    assert(Posting(0, 999, 1) < Posting(1, 0, 1))
    assert(Posting(2, 1, 1).compare(Posting(2, 1, 9)) == 0) // length not identity
  }

  test("posting key packs blob and offset without collisions") {
    forAllG(Gen.zip(genPosting, genPosting), trials = 200) { case (a, b) =>
      if (a.blobId != b.blobId || a.offset != b.offset) assert(a.key != b.key)
      else assert(a.key == b.key)
    }
  }

  test("posting key rejects an offset of 2^40 and a blob id of 2^23 instead of aliasing") {
    val maxOff = (1L << 40) - 1
    val maxBlob = (1 << 23) - 1
    assert(Posting(0, maxOff, 1).key == maxOff)
    assert(Posting(maxBlob, 0, 1).key == maxBlob.toLong << 40)
    assert(Posting(maxBlob, maxOff, 1).key == Long.MaxValue)
    val off = intercept[IllegalArgumentException](Posting(0, 1L << 40, 1).key)
    assert(off.getMessage.contains("offset") && off.getMessage.contains((1L << 40).toString))
    val blob = intercept[IllegalArgumentException](Posting(1 << 23, 0, 1).key)
    assert(blob.getMessage.contains("blobId") && blob.getMessage.contains((1 << 23).toString))
  }

  test("decode rejects postings whose key would alias, accepts the largest packable ones") {
    val edge = Vector(Posting(0, (1L << 40) - 1, 7), Posting((1 << 23) - 1, (1L << 40) - 1, 9))
    assert(PostingsCodec.decode(encode(edge)) == edge)
    assert(Posting.unionSorted(Seq(edge.drop(1), edge.take(1), edge).map(packed)) == edge)
    assert(Posting.intersectSorted(Seq(edge, edge.drop(1))) == edge.drop(1))
    val off = intercept[IllegalArgumentException](
      PostingsCodec.decode(encode(Vector(Posting(3, 1L << 40, 1)))))
    assert(off.getMessage.contains("offset") && off.getMessage.contains((1L << 40).toString))
    val blob = intercept[IllegalArgumentException](
      PostingsCodec.decode(encode(Vector(Posting(0, 5, 1), Posting(1 << 23, 0, 1)))))
    assert(blob.getMessage.contains("blobId") && blob.getMessage.contains((1 << 23).toString))
  }

  test("decode rejects a count larger than the bytes can hold") {
    val out = new java.io.ByteArrayOutputStream()
    PostingsCodec.writeVarLong(out, 1000L)
    intercept[IllegalArgumentException](PostingsCodec.decode(out.toByteArray))
  }

  test("decode rejects a length whose varint decodes negative") {
    val out = new java.io.ByteArrayOutputStream()
    PostingsCodec.writeVarLong(out, 1L) // count
    PostingsCodec.writeVarLong(out, 0L) // blobId delta
    PostingsCodec.writeVarLong(out, 0L) // offset
    out.write(Array.fill(9)(0xff.toByte) :+ 0x01.toByte) // 10-byte varint of -1
    val e = intercept[IllegalArgumentException](PostingsCodec.decode(out.toByteArray))
    assert(e.getMessage.contains("length -1"))
  }

  test("posting rejects negative fields") {
    intercept[IllegalArgumentException](Posting(-1, 0, 0))
    intercept[IllegalArgumentException](Posting(0, -1, 0))
    intercept[IllegalArgumentException](Posting(0, 0, -1))
  }

  test("intersectSorted equals set intersection") {
    forAllG(Gen.listOfN(3, genSorted), trials = 100) { lists =>
      val got = Posting.intersectSorted(lists.map(v => v: IndexedSeq[Posting]))
      val want = lists.map(_.toSet).reduceOption(_ intersect _).getOrElse(Set.empty)
      assert(got.toSet == want)
      assert(got == got.sorted, "intersection stays sorted")
    }
  }

  test("intersectSorted of empty input / with an empty list") {
    assert(Posting.intersectSorted(Nil).isEmpty)
    assert(Posting.intersectSorted(Seq(Vector(Posting(0, 0, 1)), Vector.empty)).isEmpty)
  }

  test("intersectSorted of a single list is itself") {
    forAllG(genSorted, trials = 50) { ps =>
      assert(Posting.intersectSorted(Seq(ps)) == ps)
    }
  }

  test("intersectSorted over skewed sizes: 1 vs 100 000 keys") {
    val big = Postings.from(Vector.tabulate(100000)(i => Posting(i % 7, i.toLong * 3, 2)).sorted)
    Seq(0, 50004, 99999).map(big).foreach { p =>
      assert(Posting.intersectSorted(Seq(Vector(p), big)) == Vector(p))
      assert(Posting.intersectSorted(Seq(big, Vector(p), big)) == Vector(p))
    }
    Seq(Posting(3, 1, 2), Posting(0, 1, 2), Posting(7, 0, 2)).foreach { p =>
      assert(Posting.intersectSorted(Seq(big, Vector(p))).isEmpty, p)
    }
  }

  test("intersectSorted of disjoint lists is empty; of identical lists is the list") {
    val evens = Vector.tabulate(500)(i => Posting(0, 2L * i, 1))
    val odds = Vector.tabulate(500)(i => Posting(0, 2L * i + 1, 1))
    assert(Posting.intersectSorted(Seq(evens, odds)).isEmpty)
    assert(Posting.intersectSorted(Seq(evens, Postings.from(evens), evens)) == evens)
  }

  test("mixed packed and boxed inputs: intersection and union equal the set algebra, sorted") {
    forAllG(Gen.listOfN(4, genSorted), trials = 100) { lists =>
      val mixed = lists.zipWithIndex.map { case (l, i) =>
        if (i % 2 == 0) PostingsCodec.decode(encode(l)) else l
      }
      val inter = Posting.intersectSorted(mixed)
      assert(inter.toSet == lists.map(_.toSet).reduce(_ intersect _))
      assert(inter == inter.sorted)
      val union = Posting.unionSorted(mixed.map(packed))
      assert(union.toSet == lists.flatten.toSet)
      assert(union == union.distinct.sorted)
    }
  }

  test("unionSorted equals set union, sorted and duplicate-free") {
    forAllG(Gen.listOfN(3, genSorted), trials = 100) { lists =>
      val got = Posting.unionSorted(lists.map(packed))
      assert(got.toSet == lists.flatten.toSet)
      assert(got == got.distinct.sorted)
    }
  }

  /** The bytes `85 80 80 80 80 80 80 80 80 03`: a ten-byte varint whose
    * last byte sets bits above bit 63. Dropping them would read 5.
    */
  private val overlongVarint: Array[Byte] =
    (0x85 +: Seq.fill(8)(0x80) :+ 0x03).map(_.toByte).toArray

  test("a ten-byte varint with bits above bit 63 is rejected, not read as 5") {
    intercept[IllegalArgumentException](new PostingsCodec.Reader(overlongVarint).readVarLong())
    intercept[IllegalArgumentException](new PostingsCodec.Reader(overlongVarint).readVarInt())
    val out = new java.io.ByteArrayOutputStream()
    PostingsCodec.writeVarLong(out, 1L) // count
    PostingsCodec.writeVarLong(out, 0L) // blobId delta
    PostingsCodec.writeVarLong(out, 0L) // offset
    out.write(overlongVarint)           // length
    intercept[IllegalArgumentException](PostingsCodec.decode(out.toByteArray))
    intercept[IllegalArgumentException](
      PostingsCodec.decodeIntersect(Seq(out.toByteArray, encode(Vector(Posting(0, 0, 5))))))
  }

  test("readVarInt rejects a ten-byte varint that reads as a negative Long") {
    val minusTwo = (0xfe +: Seq.fill(8)(0xff) :+ 0x01).map(_.toByte).toArray
    assert(new PostingsCodec.Reader(minusTwo).readVarLong() == -2L)
    intercept[IllegalArgumentException](new PostingsCodec.Reader(minusTwo).readVarInt())
  }

  test("a truncated varint throws IllegalArgumentException") {
    intercept[IllegalArgumentException](new PostingsCodec.Reader(Array(0x80.toByte)).readVarLong())
    intercept[IllegalArgumentException](new PostingsCodec.Reader(Array.emptyByteArray).readVarInt())
  }

  test("a string longer than the bytes left throws IllegalArgumentException") {
    intercept[IllegalArgumentException](new PostingsCodec.Reader(Array[Byte](5, 'a')).readString())
    val r = new PostingsCodec.Reader(Array[Byte](1, 'a', 2, 'b'))
    assert(r.readString() == "a")
    intercept[IllegalArgumentException](r.readString())
  }

  test("decode rejects postings that are not strictly ascending") {
    // Two postings in blob 0: offset 7, then an offset delta of -3 as a
    // ten-byte varint, which would decode to offset 4.
    val bytes = Seq(2L, 0L, 7L, 1L, 0L, -3L, 1L).flatMap(bytesOf).toArray
    intercept[IllegalArgumentException](PostingsCodec.decode(bytes))
  }

  /** The varint bytes of `v`, negative values included (ten bytes). */
  private def bytesOf(v0: Long): Array[Byte] = {
    val out = new java.io.ByteArrayOutputStream()
    var v = v0
    while ((v & ~0x7fL) != 0) { out.write(((v & 0x7f) | 0x80).toInt); v >>>= 7 }
    out.write(v.toInt)
    out.toByteArray
  }

  /** Postings over three blobs whose length is a function of the key (one
    * key, one document), each length under 128 so that a list's encoding
    * ends in its last length's one byte.
    */
  private val pool: Vector[Posting] =
    Vector.tabulate(3, 60)((b, o) => Posting(b, o.toLong * 11, (b * 31 + o) % 100 + 1)).flatten

  private val genPoolList: Gen[Vector[Posting]] = for {
    density <- Gen.oneOf(0.0, 0.05, 0.3, 0.7, 1.0)
    picks <- Gen.listOfN(pool.size, Gen.choose(0.0, 1.0))
  } yield pool.zip(picks).collect { case (p, x) if x < density => p }

  private val genSuperposts: Gen[Seq[Vector[Posting]]] =
    Gen.choose(1, 5).flatMap(n => Gen.listOfN(n, genPoolList))

  private def sameKeysAndLengths(got: Postings, want: Postings, clue: Any): Unit = {
    assert(got.keys.toSeq == want.keys.toSeq, clue)
    assert(got.lengths.toSeq == want.lengths.toSeq, clue)
  }

  private def assertDecodeIntersect(lists: Seq[Vector[Posting]]): Unit = {
    val bytes = lists.map(encode(_))
    val want = Posting.intersectSorted(bytes.map(PostingsCodec.decode))
    sameKeysAndLengths(PostingsCodec.decodeIntersect(bytes), want, lists.map(_.size))
  }

  test("decodeIntersect equals intersectSorted of the decoded superposts") {
    forAllG(genSuperposts, trials = 300)(assertDecodeIntersect)
    assert(PostingsCodec.decodeIntersect(Nil).isEmpty)
  }

  test("decodeIntersect: one list, an empty list, equal counts, the shortest list not first") {
    val evens = pool.filter(_.offset % 22 == 0)
    val odds = pool.filter(_.offset % 22 == 11)
    val thirds = pool.filter(_.offset % 33 == 0)
    val few = pool.filter(_.offset % 55 == 0)
    val cases = Seq(
      Seq(evens),
      Seq(Vector.empty),
      Seq(evens, Vector.empty, thirds),
      Seq(evens, odds), // equal counts, disjoint
      Seq(evens, evens.filter(_.blobId < 2) ++ odds.filter(_.blobId == 2)), // equal counts, overlap
      Seq(evens, thirds, few),
      Seq(thirds, few, evens),
      Seq(pool, pool, pool))
    cases.foreach(assertDecodeIntersect)
    assert(PostingsCodec.decodeIntersect(Seq(encode(evens))) == evens)
  }

  /** The index of a list that decodeIntersect streams rather than decodes:
    * one with more postings than the shortest.
    */
  private def streamed(lists: Seq[Vector[Posting]]): Option[Int] = {
    val shortest = lists.map(_.size).min
    Some(lists.indexWhere(_.size > shortest)).filter(_ >= 0)
  }

  test("decodeIntersect throws on a truncated streamed superpost") {
    var checked = 0
    forAllG(genSuperposts, trials = 300) { lists =>
      streamed(lists).foreach { s =>
        val bytes = lists.map(encode(_))
        val cut = bytes.updated(s, bytes(s).dropRight(1))
        intercept[IllegalArgumentException](PostingsCodec.decodeIntersect(cut))
        checked += 1
      }
    }
    assert(checked > 50, s"only $checked cases streamed a superpost")
  }

  test("decodeIntersect throws on a streamed superpost corrupt past the last common key") {
    val short = Vector(pool(0), pool(1))
    val long = pool.take(40)
    val bytes = encode(long)
    val corrupt = bytes.dropRight(1) ++ overlongVarint // the last posting's length
    intercept[IllegalArgumentException](PostingsCodec.decode(corrupt))
    intercept[IllegalArgumentException](
      PostingsCodec.decodeIntersect(Seq(encode(short), corrupt)))
    intercept[IllegalArgumentException](
      PostingsCodec.decodeIntersect(Seq(corrupt, encode(Vector.empty))))
    var checked = 0
    forAllG(genSuperposts, trials = 300) { lists =>
      streamed(lists).foreach { s =>
        val bytes = lists.map(encode(_))
        val bad = bytes.updated(s, bytes(s).dropRight(1) ++ overlongVarint)
        intercept[IllegalArgumentException](PostingsCodec.decodeIntersect(bad))
        checked += 1
      }
    }
    assert(checked > 50, s"only $checked cases streamed a superpost")
  }

  test("unionSorted equals flatten.distinct.sorted, in keys and lengths") {
    forAllG(Gen.choose(0, 5).flatMap(n => Gen.listOfN(n, genPoolList)), trials = 300) { lists =>
      val want = Postings.from(lists.flatten.distinct.sorted.toIndexedSeq)
      sameKeysAndLengths(Posting.unionSorted(lists.map(packed)), want, lists.map(_.size))
      sameKeysAndLengths(Posting.unionSorted(lists.map(l => PostingsCodec.decode(encode(l)))),
                         want, lists.map(_.size))
    }
  }
}
