package repro.core

import java.io.ByteArrayOutputStream

import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}

/** Pointer from an MHT bin to its superpost's bytes inside a superpost
  * block blob: (block id, byte offset, byte length) — readable in a
  * single round trip (§IV-C).
  */
final case class BinPointer(block: Int, offset: Int, length: Int) {
  require(block >= 0 && offset >= 0 && length >= 0)
}

/** The Multilayer Hash Table — the in-memory half of IoU Sketch
  * (Table I: MHT plays the role Lucene's skip-list term index plays).
  *
  * Holds per-layer hash seeds and per-bin pointers to superposts, the
  * blob-name string tables for superpost blocks and document blobs, and
  * the exact-postings pointers for the reserved common words (§IV-E).
  * Everything here is what the header block persists; memory footprint is
  * O(B) as the paper requires.
  *
  * @param binPointers  binPointers(layer)(bin); null = empty bin (no word
  *                     hashed there, so any query word mapping there has an
  *                     empty — hence exact — final postings list)
  */
final class Mht(
    val layers: Int,
    val binsPerLayer: Int,
    val seeds: Array[Int],
    val binPointers: Array[Array[BinPointer]],
    val commonWords: Map[String, BinPointer],
    val blockBlobs: Array[String],
    val docBlobs: Array[String],
) {
  require(layers >= 1, s"MHT layers = $layers, must be at least 1")
  require(binsPerLayer >= 1, s"MHT binsPerLayer = $binsPerLayer, must be at least 1")
  require(seeds.length == layers && binPointers.length == layers)
  require(binPointers.forall(_.length == binsPerLayer))
  require(binPointers.forall(_.forall(p => p == null || p.block < blockBlobs.length)),
    s"MHT bin pointer names a block past the header's ${blockBlobs.length} block blobs")
  require(commonWords.valuesIterator.forall(_.block < blockBlobs.length),
    s"MHT common-word pointer names a block past the header's ${blockBlobs.length} block blobs")

  def binOf(word: String, layer: Int): Int = Hashing.bin(word, seeds(layer), binsPerLayer)

  /** The L superpost pointers for a (non-common) word; None if some layer's
    * bin is empty, which proves the word is absent from the corpus.
    */
  def pointersFor(word: String): Option[IndexedSeq[BinPointer]] = {
    val ps = (0 until layers).map(l => binPointers(l)(binOf(word, l)))
    if (ps.contains(null)) None else Some(ps)
  }

  def rangeReq(p: BinPointer): RangeReq = RangeReq(blockBlobs(p.block), p.offset.toLong, p.length)

  // ---- serialization (the header block, §IV-C) ---------------------------

  def serialize(): Array[Byte] = {
    import PostingsCodec._
    val out = new ByteArrayOutputStream()
    out.write(Mht.Magic, 0, Mht.Magic.length)
    writeVarLong(out, layers.toLong)
    writeVarLong(out, binsPerLayer.toLong)
    seeds.foreach(s => writeVarLong(out, s.toLong & 0xffffffffL))
    writeVarLong(out, blockBlobs.length.toLong)
    blockBlobs.foreach(writeString(out, _))
    writeVarLong(out, docBlobs.length.toLong)
    docBlobs.foreach(writeString(out, _))
    binPointers.foreach { layer =>
      layer.foreach { p =>
        if (p == null) writeVarLong(out, 0L)
        else { writeVarLong(out, 1L); writePointer(out, p) }
      }
    }
    writeEntries(out, commonWords.toSeq.sortBy(_._1))
    out.toByteArray
  }
}

object Mht {
  /** Names the header format, and with it the superpost layout: AIRP1
    * headers point at varint superposts, which this reader rejects.
    */
  private val Magic: Array[Byte] = "AIRP2".getBytes("UTF-8")

  def deserialize(bytes: Array[Byte]): Mht = {
    val found = bytes.take(Magic.length)
    require(found.sameElements(Magic),
      s"MHT header magic '${new String(found, "UTF-8")}' is not '${new String(Magic, "UTF-8")}'")
    val r = new PostingsCodec.Reader(java.util.Arrays.copyOfRange(bytes, Magic.length, bytes.length))
    val layers = r.readVarInt()
    val binsPerLayer = r.readVarInt()
    val seeds = Array.fill(layers)(r.readVarLong().toInt)
    val blockBlobs = Array.fill(r.readVarInt())(r.readString())
    val docBlobs = Array.fill(r.readVarInt())(r.readString())
    val binPointers = Array.fill(layers)(Array.tabulate(binsPerLayer) { _ =>
      if (r.readVarInt() == 0) null else r.readPointer()
    })
    val common = r.readEntries().toMap
    require(r.remaining == 0, s"MHT header has trailing bytes after its common-word table: ${r.remaining}")
    new Mht(layers, binsPerLayer, seeds, binPointers, common, blockBlobs, docBlobs)
  }

  /** Fetch + parse a header blob (Searcher initialization, one request). */
  def load(store: CloudStorage, headerBlob: String, ledger: FetchLedger): Mht =
    deserialize(store.get(headerBlob, ledger))
}
