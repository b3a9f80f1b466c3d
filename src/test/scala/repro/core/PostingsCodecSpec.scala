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

  private val genSorted: Gen[Vector[Posting]] =
    Gen.listOf(genPosting).map(ps =>
      ps.distinctBy(p => (p.blobId, p.offset)).sorted.toVector)

  test("encode/decode is the identity on sorted postings lists") {
    forAllG(genSorted, trials = 200) { ps =>
      assert(PostingsCodec.decode(PostingsCodec.encode(ps)) == ps)
    }
  }

  test("empty list encodes to a single varint") {
    val bytes = PostingsCodec.encode(Vector.empty)
    assert(bytes.length == 1)
    assert(PostingsCodec.decode(bytes).isEmpty)
  }

  test("encoding rejects unsorted input") {
    val bad = Vector(Posting(1, 10, 5), Posting(0, 0, 5))
    intercept[IllegalArgumentException](PostingsCodec.encode(bad))
  }

  test("encoding rejects duplicate postings") {
    val bad = Vector(Posting(0, 10, 5), Posting(0, 10, 5))
    intercept[IllegalArgumentException](PostingsCodec.encode(bad))
  }

  test("delta encoding is compact for dense same-blob postings") {
    val dense = Vector.tabulate(1000)(i => Posting(0, i.toLong * 120, 119))
    val bytes = PostingsCodec.encode(dense)
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
    assert(PostingsCodec.decode(PostingsCodec.encode(edge)) == edge)
    assert(Posting.unionSorted(Seq(edge.drop(1), edge.take(1), edge)) == edge)
    assert(Posting.intersectSorted(Seq(edge, edge.drop(1))) == edge.drop(1))
    val off = intercept[IllegalArgumentException](
      PostingsCodec.decode(PostingsCodec.encode(Vector(Posting(3, 1L << 40, 1)))))
    assert(off.getMessage.contains("offset") && off.getMessage.contains((1L << 40).toString))
    val blob = intercept[IllegalArgumentException](
      PostingsCodec.decode(PostingsCodec.encode(Vector(Posting(0, 5, 1), Posting(1 << 23, 0, 1)))))
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
        if (i % 2 == 0) PostingsCodec.decode(PostingsCodec.encode(l)) else l
      }
      val inter = Posting.intersectSorted(mixed)
      assert(inter.toSet == lists.map(_.toSet).reduce(_ intersect _))
      assert(inter == inter.sorted)
      val union = Posting.unionSorted(mixed)
      assert(union.toSet == lists.flatten.toSet)
      assert(union == union.distinct.sorted)
    }
  }

  test("unionSorted equals set union, sorted and duplicate-free") {
    forAllG(Gen.listOfN(3, genSorted), trials = 100) { lists =>
      val got = Posting.unionSorted(lists.map(v => v: IndexedSeq[Posting]))
      assert(got.toSet == lists.flatten.toSet)
      assert(got == got.distinct.sorted)
    }
  }
}
