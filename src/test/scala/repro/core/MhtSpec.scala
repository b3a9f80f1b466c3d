package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.GenChecks
import repro.cloudstore.{FetchLedger, LocalCloudStorage, NetworkModel}

class MhtSpec extends AnyFunSuite with GenChecks {

  private val genMht: Gen[Mht] = for {
    layers <- Gen.choose(1, 5)
    bins <- Gen.choose(1, 64)
    seeds <- Gen.listOfN(layers, Gen.choose(Int.MinValue, Int.MaxValue))
    nBlocks <- Gen.choose(1, 5)
    density <- Gen.choose(0.0, 1.0)
    fills <- Gen.listOfN(layers * bins, Gen.choose(0.0, 1.0))
    nCommon <- Gen.choose(0, 10)
  } yield {
    val ptrs = Array.tabulate(layers, bins) { (l, b) =>
      if (fills(l * bins + b) < density)
        BinPointer((l + b) % nBlocks, b * 10, 7)
      else null
    }
    val common = (0 until nCommon).map(i => s"common$i" -> BinPointer(0, i * 3, 3)).toMap
    new Mht(layers, bins, seeds.toArray, ptrs.map(_.toArray),
            common, Array.tabulate(nBlocks)(i => s"blk-$i"), Array("docs-0", "docs-1"))
  }

  private def assertSame(a: Mht, b: Mht): Unit = {
    assert(b.layers == a.layers && b.binsPerLayer == a.binsPerLayer)
    assert(b.seeds.toSeq == a.seeds.toSeq)
    assert(b.blockBlobs.toSeq == a.blockBlobs.toSeq)
    assert(b.docBlobs.toSeq == a.docBlobs.toSeq)
    assert(b.commonWords == a.commonWords)
    (0 until a.layers).foreach { l =>
      (0 until a.binsPerLayer).foreach { bin =>
        assert(b.binPointers(l)(bin) == a.binPointers(l)(bin), s"pointer ($l, $bin)")
      }
    }
  }

  test("serialize/deserialize round trip preserves everything") {
    forAllG(genMht, trials = 100) { mht =>
      assertSame(mht, Mht.deserialize(mht.serialize()))
    }
  }

  test("deserialize rejects garbage") {
    intercept[IllegalArgumentException](Mht.deserialize("not a header".getBytes))
  }

  test("a header of the varint superpost format is rejected by the magic it holds") {
    val bytes = new Mht(1, 1, Array(0), Array(Array(BinPointer(0, 0, 4))), Map.empty,
                        Array("blk-0"), Array("docs-0")).serialize()
    assert(new String(bytes.take(5), "UTF-8") == "AIRP2")
    val old = "AIRP1".getBytes("UTF-8") ++ bytes.drop(5)
    val e = intercept[IllegalArgumentException](Mht.deserialize(old))
    assert(e.getMessage.contains("'AIRP1'"), e.getMessage)
  }

  test("negative hash seeds survive the round trip") {
    val mht = new Mht(2, 4, Array(-123456789, Int.MinValue),
                      Array.fill(2)(new Array[BinPointer](4)), Map.empty,
                      Array("b"), Array("d"))
    val back = Mht.deserialize(mht.serialize())
    assert(back.seeds.toSeq == Seq(-123456789, Int.MinValue))
  }

  test("binOf matches Hashing.bin") {
    forAllG(Gen.zip(genMht, Gen.alphaNumStr), trials = 60) { case (mht, w) =>
      (0 until mht.layers).foreach { l =>
        assert(mht.binOf(w, l) == Hashing.bin(w, mht.seeds(l), mht.binsPerLayer))
      }
    }
  }

  test("pointersFor is None iff some layer's bin is empty") {
    forAllG(Gen.zip(genMht, Gen.alphaNumStr), trials = 100) { case (mht, w) =>
      val expectEmpty = (0 until mht.layers).exists(l => mht.binPointers(l)(mht.binOf(w, l)) == null)
      assert(mht.pointersFor(w).isEmpty == expectEmpty)
      mht.pointersFor(w).foreach(ps => assert(ps.size == mht.layers))
    }
  }

  test("rangeReq resolves block ids through the string table") {
    val mht = new Mht(1, 1, Array(1), Array(Array(BinPointer(1, 5, 9))),
                      Map.empty, Array("blk-0", "blk-1"), Array("d"))
    val req = mht.rangeReq(BinPointer(1, 5, 9))
    assert(req.blob == "blk-1" && req.offset == 5 && req.length == 9)
  }

  test("load fetches the header as one accounted request") {
    val store = new LocalCloudStorage(NetworkModel())
    val mht = new Mht(1, 2, Array(7), Array(Array(null, BinPointer(0, 0, 1))),
                      Map("the" -> BinPointer(0, 1, 2)), Array("blk"), Array("docs"))
    store.put("header", mht.serialize())
    val ledger = new FetchLedger
    val back = Mht.load(store, "header", ledger)
    assert(ledger.stats.roundTripSteps == 1)
    assert(ledger.stats.bytes == mht.serialize().length)
    assertSame(mht, back)
  }

  test("the persisted header format is pinned") {
    val ptrs = Array.tabulate(3, 50) { (l, b) =>
      if ((l + b) % 4 == 0) null else BinPointer(b % 2, b * 300 + l, 17 + b)
    }
    val common = (0 until 6).map(i => s"w$i" -> BinPointer(i % 2, 70_000 + i * 40, 40)).toMap
    val mht = new Mht(3, 50, Array(-5, 0, Int.MaxValue), ptrs, common,
                      Array("blk-0", "blk-1"), Array("docs-0", "docs-1", "docs-2"))
    val crc = new java.util.zip.CRC32
    crc.update(mht.serialize())
    assert(crc.getValue == 3833888104L)
  }

  test("header stays small: O(B) bytes (paper: ~2 MB at B = 1e5)") {
    val layers = 2; val bins = 5000
    val ptrs = Array.fill(layers)(Array.tabulate(bins)(b => BinPointer(b % 3, b * 40, 35)))
    val mht = new Mht(layers, bins, Array(1, 2), ptrs, Map.empty,
                      Array("b0", "b1", "b2"), Array("d0"))
    val size = mht.serialize().length
    // ~5 bytes per pointer at B*L = 10000 pointers => well under 100 KB
    assert(size < 100_000, s"header is $size bytes")
  }

  test("a header whose bin pointer holds a ten-byte varint with bits above bit 63 is rejected") {
    import PostingsCodec._
    val out = new java.io.ByteArrayOutputStream()
    out.write("AIRP2".getBytes("UTF-8"))
    Seq(1L, 1L, 0L).foreach(writeVarLong(out, _)) // one layer of one bin, seed 0
    writeVarLong(out, 1L); writeString(out, "blk-0")
    writeVarLong(out, 1L); writeString(out, "docs-0")
    writeVarLong(out, 1L) // the bin is not empty
    writeVarLong(out, 0L) // block
    out.write((0x85 +: Seq.fill(8)(0x80) :+ 0x03).map(_.toByte).toArray) // offset, 5 if truncated
    writeVarLong(out, 7L) // length
    writeVarLong(out, 0L) // no common words
    intercept[IllegalArgumentException](Mht.deserialize(out.toByteArray))
  }

  /** A one-layer, one-bin header over one block blob, with one common word.
    * The offsets below locate the bytes the fault tests edit.
    */
  private def smallHeader(bin: BinPointer): Array[Byte] =
    new Mht(1, 1, Array(0), Array(Array(bin)), Map("the" -> BinPointer(0, 9, 2)),
            Array("blk-0"), Array("docs-0")).serialize()
  private val LayersAt = 5      // after the magic
  private val BinsAt = 6
  private val SeedAt = 7
  private val BinAt = 7 + 1 + 1 + 1 + 5 + 1 + 1 + 6 // seed, block count, "blk-0", doc count, "docs-0"

  private def rejected(bytes: Array[Byte]): String =
    intercept[IllegalArgumentException](Mht.deserialize(bytes)).getMessage

  test("a header whose bin pointer names a block past the block table is rejected") {
    val bytes = smallHeader(BinPointer(0, 0, 4))
    assert(bytes.slice(BinAt, BinAt + 2).toSeq == Seq[Byte](1, 0)) // a full bin, block 0
    val msg = rejected(bytes.updated(BinAt + 1, 1.toByte))
    assert(msg.contains("bin pointer names a block past"), msg)
  }

  test("a header whose common word names a block past the block table is rejected") {
    val bytes = smallHeader(null)
    // The table's last entry: the word, then its block, offset and length.
    val blockAt = bytes.length - 3
    assert(bytes.slice(blockAt - 4, bytes.length).toSeq ==
           (Seq[Byte](3) ++ "the".getBytes("UTF-8") ++ Seq[Byte](0, 9, 2)))
    val msg = rejected(bytes.updated(blockAt, 1.toByte))
    assert(msg.contains("common-word pointer names a block past"), msg)
  }

  test("a header with no layers is rejected by its layer count") {
    val bytes = smallHeader(null)
    assert(bytes(LayersAt) == 1 && bytes(BinAt) == 0)
    // Zero layers hold no seed and no bin.
    val noLayers = bytes.take(LayersAt) ++ Array[Byte](0, bytes(BinsAt)) ++
                   bytes.slice(SeedAt + 1, BinAt) ++ bytes.drop(BinAt + 1)
    assert(rejected(noLayers).contains("layers = 0"))
  }

  test("a header with no bins per layer is rejected by its bin count") {
    val bytes = smallHeader(null)
    assert(bytes(BinsAt) == 1 && bytes(BinAt) == 0)
    // A layer of zero bins holds no bin.
    val noBins = bytes.take(BinAt).updated(BinsAt, 0.toByte) ++ bytes.drop(BinAt + 1)
    assert(rejected(noBins).contains("binsPerLayer = 0"))
  }

  test("a header with bytes after its common-word table is rejected") {
    val msg = rejected(smallHeader(BinPointer(0, 0, 4)) :+ 0.toByte)
    assert(msg.contains("trailing bytes after its common-word table: 1"), msg)
  }

  test("a header cut inside its first block name is rejected with IllegalArgumentException") {
    val bytes = new Mht(1, 1, Array(0), Array(Array[BinPointer](null)), Map.empty,
                        Array("blk-0"), Array("docs-0")).serialize()
    // magic, layers, bins, one seed, the block count, the name's length, then "bl"
    val nameAt = "AIRP2".length + 4
    assert(bytes(nameAt) == "blk-0".length)
    val cut = java.util.Arrays.copyOf(bytes, nameAt + 1 + 2)
    intercept[IllegalArgumentException](Mht.deserialize(cut))
  }
}
