package repro.baselines

import java.io.ByteArrayOutputStream

import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.core.{BinPointer, DocFetcher, IoUMath, Posting, PostingsCodec, SearchResult}

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
    built: ExactPostings.Built,
    bucket: String,
    prefix: String,
    leafBlockSize: Int = 256,
    fanout: Int = 32,
    cacheBlocks: Int = 8,
) extends SearchEngine {
  require(leafBlockSize >= 2 && fanout >= 2 && cacheBlocks >= 0)

  override def name: String = "Lucene-like (skip list)"

  /** (firstTerm, offset, length) of one block within the level below. */
  private type LevelEntry = (String, Int, Int)

  // ---- build (driver-side; the dictionary is collected already) ---------

  /** levelBlobs(k) holds level k's serialized blocks; level 0 = leaves. */
  private val (levelBlobs: Vector[String], topEntries: Vector[LevelEntry]) = {
    val blobs = Vector.newBuilder[String]

    def writeLevel(blobName: String, blocks: Seq[Array[Byte]]): Vector[LevelEntry] = {
      val buf = new ByteArrayOutputStream()
      val entries = Vector.newBuilder[(Int, Int)]
      blocks.foreach { b => entries += ((buf.size(), b.length)); buf.write(b, 0, b.length) }
      store.put(blobName, buf.toByteArray)
      blobs += blobName
      entries.result().zip(blocks).map { case ((off, len), _) => (null: String, off, len) }
    }

    // Leaf level: blocks of (term -> postings pointer).
    val leafGroups = built.words.grouped(leafBlockSize).toVector
    val leafBlocks = leafGroups.map { ws =>
      serializeBlock(ws.map(w => (w, built.pointers(w))))
    }
    var entries = writeLevel(s"$prefix/skiplist-0", leafBlocks)
      .zip(leafGroups).map { case ((_, off, len), ws) => (ws.head, off, len) }

    // Upper levels until the directory fits in memory.
    var level = 1
    while (entries.size > fanout) {
      val groups = entries.grouped(fanout).toVector
      val blocks = groups.map { es =>
        serializeBlock(es.map { case (t, off, len) =>
          (t, BinPointer(0, off, len)) // block field unused at upper levels
        })
      }
      entries = writeLevel(s"$prefix/skiplist-$level", blocks)
        .zip(groups).map { case ((_, off, len), es) => (es.head._1, off, len) }
      level += 1
    }
    (blobs.result(), entries)
  }

  private def serializeBlock(entries: Seq[(String, BinPointer)]): Array[Byte] = {
    import PostingsCodec._
    val out = new ByteArrayOutputStream()
    writeVarLong(out, entries.size.toLong)
    entries.foreach { case (t, p) =>
      writeString(out, t)
      writeVarLong(out, p.block.toLong); writeVarLong(out, p.offset.toLong)
      writeVarLong(out, p.length.toLong)
    }
    out.toByteArray
  }

  private def parseBlock(bytes: Array[Byte]): Vector[(String, BinPointer)] = {
    val r = new PostingsCodec.Reader(bytes)
    Vector.fill(r.readVarInt()) {
      (r.readString(), BinPointer(r.readVarInt(), r.readVarInt(), r.readVarInt()))
    }
  }

  /** Last entry index with term <= word (or 0 if word precedes all). */
  private def floorIndex(terms: IndexedSeq[String], word: String): Int = {
    var lo = 0; var hi = terms.size - 1
    if (word < terms(0)) return 0
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (terms(mid) <= word) lo = mid else hi = mid - 1
    }
    lo
  }

  // ---- lookup ------------------------------------------------------------

  /** Small LRU of term-dictionary blocks — models the OS page cache a
    * locally run Lucene enjoys; sized well below the dictionary at bench
    * scale so large corpora still pay the dependent reads.
    */
  private val blockCache =
    new java.util.LinkedHashMap[(Int, Long), Vector[(String, BinPointer)]](16, 0.75f, true) {
      override def removeEldestEntry(
          e: java.util.Map.Entry[(Int, Long), Vector[(String, BinPointer)]]): Boolean =
        size() > cacheBlocks
    }

  /** Drop cached dictionary blocks (fresh-VM condition). */
  def clearCache(): Unit = blockCache.clear()

  private def readBlock(level: Int, p: BinPointer, ledger: FetchLedger): Vector[(String, BinPointer)] = {
    val key = (level, p.offset.toLong)
    val hit = blockCache.get(key)
    if (hit != null) return hit
    val bytes = store.getRange(RangeReq(levelBlobs(level), p.offset.toLong, p.length), ledger)
    val entries = parseBlock(bytes)
    if (cacheBlocks > 0) blockCache.put(key, entries)
    entries
  }

  override def lookup(word: String, ledger: FetchLedger): IndexedSeq[Posting] = {
    // Descend from the in-memory top directory: ONE dependent range read
    // per level (modulo cache hits), then the postings read.
    var level = levelBlobs.size - 1
    var entries: Vector[(String, BinPointer)] =
      topEntries.map { case (t, off, len) => (t, BinPointer(0, off, len)) }
    while (level >= 0) {
      val i = floorIndex(entries.map(_._1), word)
      entries = readBlock(level, entries(i)._2, ledger)
      level -= 1
    }
    entries.find(_._1 == word) match {
      case None => Vector.empty
      case Some((_, ptr)) =>
        val bytes = store.getRange(
          RangeReq(built.blockBlobs(ptr.block), ptr.offset.toLong, ptr.length), ledger)
        PostingsCodec.decode(bytes)
    }
  }

  override def search(word: String, topK: Option[Int]): SearchResult = {
    val ledger = new FetchLedger
    val candidates = lookup(word, ledger)
    val keep = DocFetcher.wordPredicate(word)
    val r = topK match {
      case Some(k) => DocFetcher.fetchTopK(store, built.docBlobs, candidates, keep,
                                           k, f0 = 0.0, delta = 1e-6, ledger = ledger)
      case None    => DocFetcher.fetchAndFilter(store, built.docBlobs, candidates, keep, ledger)
    }
    SearchResult(r.docs, candidates.size, r.fetched, r.falsePositives, ledger.stats)
  }

  override def indexBytes: Long =
    levelBlobs.map(store.size).sum + built.bytesOf(store)
}
