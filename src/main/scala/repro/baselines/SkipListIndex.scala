package repro.baselines

import java.io.ByteArrayOutputStream

import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.core.{BinPointer, Posting, Postings, PostingsCodec, SearchResult}

/** Lucene-like baseline: a skip-list term index persisted on cloud
  * storage (§II-A: Lucene's term index is a skip list; §V-B0c attributes
  * its cloud slowness to "dependent sequential reads, i.e. reads whose
  * locations depend on decisions in preceding reads").
  *
  * Terms are sorted into leaf blocks; each upper level indexes every
  * `fanout`-th block of the level below; only the topmost level lives in
  * memory after initialization. A lookup therefore descends one level per
  * *sequential* round trip — exactly the access pattern the paper blames —
  * then reads the postings list, then runs the shared document-retrieval
  * routine.
  */
final class SkipListIndex(
    store: CloudStorage,
    val built: ExactPostings.Built,
    bucket: String,
    prefix: String,
    leafBlockSize: Int = 256,
    fanout: Int = 32,
    cacheBlocks: Int = 8,
) extends SearchEngine {
  require(leafBlockSize >= 2 && fanout >= 2 && cacheBlocks >= 0)

  override def name: String = "Lucene-like (skip list)"

  /** A block's entries: (term, postings pointer) at the leaves, and
    * (first term, the child block's range in the level below) above them.
    */
  private type Entries = Vector[(String, BinPointer)]

  // ---- build (driver-side; the dictionary is collected already) ---------

  /** levelBlobs(k) holds level k's serialized blocks (level 0 = leaves);
    * topEntries indexes the topmost level and stays in memory. Each upper
    * level indexes every `fanout`-th block until the directory fits.
    */
  private val (levelBlobs: Vector[String], topEntries: Entries) = {
    var blobs = Vector.empty[String]
    var entries: Entries = built.words.toVector.map(w => (w, built.pointers(w)))
    var blockSize = leafBlockSize
    do {
      val buf = new ByteArrayOutputStream()
      entries = entries.grouped(blockSize).map { block =>
        val off = buf.size()
        PostingsCodec.writeEntries(buf, block)
        (block.head._1, BinPointer(0, off, buf.size() - off)) // block field unused above leaves
      }.toVector
      val blob = s"$prefix/skiplist-${blobs.size}"
      store.put(blob, buf.toByteArray)
      blobs :+= blob
      blockSize = fanout
    } while (entries.size > fanout)
    (blobs, entries)
  }

  // ---- lookup ------------------------------------------------------------

  /** Small LRU of term-dictionary blocks — models the OS page cache a
    * locally run Lucene enjoys; sized well below the dictionary at bench
    * scale so large corpora still pay the dependent reads.
    */
  private val blockCache = ExactPostings.lru[(Int, Long), Entries](cacheBlocks)

  /** Drop cached dictionary blocks (fresh-VM condition). */
  def clearCache(): Unit = blockCache.clear()

  private def readBlock(level: Int, p: BinPointer, ledger: FetchLedger): Entries = {
    val key = (level, p.offset.toLong)
    val hit = blockCache.get(key)
    if (hit != null) return hit
    val bytes = store.getRange(RangeReq(levelBlobs(level), p.offset.toLong, p.length), ledger)
    val entries = new PostingsCodec.Reader(bytes).readEntries()
    blockCache.put(key, entries)
    entries
  }

  override def lookup(word: String, ledger: FetchLedger): IndexedSeq[Posting] = {
    // Descend from the in-memory top directory: ONE dependent range read
    // per level (modulo cache hits), then the postings read.
    var entries = topEntries
    levelBlobs.indices.reverse.foreach { level =>
      entries = readBlock(level, entries(ExactPostings.floor(entries.map(_._1), word))._2, ledger)
    }
    entries.find(_._1 == word)
      .fold[IndexedSeq[Posting]](Postings.empty)(e => built.read(store, e._2, ledger))
  }

  override def search(word: String, topK: Option[Int]): SearchResult =
    built.search(store, word, topK)(lookup(word, _))

  override def indexBytes: Long =
    levelBlobs.map(store.size).sum + built.bytesOf(store)
}
