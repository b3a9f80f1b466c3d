package repro.baselines

import java.io.ByteArrayOutputStream

import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.core.{BinPointer, Posting, Postings, PostingsCodec, SearchResult}

/** SQLite-like baseline: a paged B-tree term index stored in a single
  * blob on cloud storage (§V-A0b: the paper uses SQLite "as a practical
  * B-tree implementation" with the database file on the cloud-mounted
  * directory, sharing AIRPHANT's document retrieval routine).
  *
  * Pages are 4 KiB (SQLite's default); a lookup walks root→leaf with one
  * *sequential dependent* page read per level, through a small LRU page
  * cache (the appendix compares against "SQLite's cached B-tree
  * traversal", so upper levels mostly hit the cache while leaves miss).
  */
final class BTreeIndex(
    store: CloudStorage,
    built: ExactPostings.Built,
    bucket: String,
    prefix: String,
    pageSize: Int = 4096,
    cachePages: Int = 12,
) extends SearchEngine {
  require(pageSize >= 512 && cachePages >= 1)

  override def name: String = "SQLite-like (B-tree)"

  private val blobName = s"$prefix/btree"

  /** A parsed page: leaf => (term, postings ptr), internal => (sep, child page id). */
  private sealed trait Page
  private final case class Leaf(entries: Vector[(String, BinPointer)]) extends Page
  private final case class Internal(entries: Vector[(String, Int)]) extends Page

  // ---- build bottom-up ---------------------------------------------------

  private def entryBytes(term: String): Int = term.getBytes("UTF-8").length + 16

  private val rootPageId: Int = {
    val pages = Vector.newBuilder[Array[Byte]]
    var nextId = 0

    def emit(bytes: Array[Byte]): Int = {
      require(bytes.length <= pageSize, s"page overflow: ${bytes.length}")
      pages += java.util.Arrays.copyOf(bytes, pageSize)
      val id = nextId; nextId += 1; id
    }

    def serializeLeaf(es: Seq[(String, BinPointer)]): Array[Byte] = {
      val out = new ByteArrayOutputStream()
      out.write(0) // leaf marker
      PostingsCodec.writeEntries(out, es)
      out.toByteArray
    }

    def serializeInternal(es: Seq[(String, Int)]): Array[Byte] = {
      import PostingsCodec._
      val out = new ByteArrayOutputStream()
      out.write(1) // internal marker
      writeVarLong(out, es.size.toLong)
      es.foreach { case (t, child) => writeString(out, t); writeVarLong(out, child.toLong) }
      out.toByteArray
    }

    /** Greedy fill of pages up to the byte budget. */
    def packBy[A](items: Seq[A])(size: A => Int): Seq[Seq[A]] = {
      val groups = Seq.newBuilder[Seq[A]]
      var cur = Vector.empty[A]; var bytes = 8
      items.foreach { a =>
        val s = size(a)
        if (cur.nonEmpty && bytes + s > pageSize - 8) { groups += cur; cur = Vector.empty; bytes = 8 }
        cur :+= a; bytes += s
      }
      if (cur.nonEmpty) groups += cur
      groups.result()
    }

    // Leaves.
    val leafGroups = packBy(built.words.toSeq.map(w => (w, built.pointers(w)))) {
      case (t, _) => entryBytes(t)
    }
    var levelEntries: Seq[(String, Int)] =
      leafGroups.map(g => (g.head._1, emit(serializeLeaf(g))))

    // Internal levels up to the root.
    while (levelEntries.size > 1) {
      val groups = packBy(levelEntries) { case (t, _) => entryBytes(t) }
      levelEntries = groups.map(g => (g.head._1, emit(serializeInternal(g))))
    }

    val all = pages.result()
    val buf = new ByteArrayOutputStream(all.size * pageSize)
    all.foreach(p => buf.write(p, 0, p.length))
    store.put(blobName, buf.toByteArray)
    levelEntries.head._2
  }

  private def parsePage(bytes: Array[Byte]): Page = {
    val r = new PostingsCodec.Reader(java.util.Arrays.copyOfRange(bytes, 1, bytes.length))
    if (bytes(0) == 0) Leaf(r.readEntries())
    else
      Internal(Vector.fill(r.readVarInt())((r.readString(), r.readVarInt())))
  }

  // ---- LRU page cache ----------------------------------------------------

  private val cache = ExactPostings.lru[Int, Page](cachePages)

  private def readPage(id: Int, ledger: FetchLedger): Page = {
    val hit = cache.get(id)
    if (hit != null) return hit
    val bytes = store.getRange(RangeReq(blobName, id.toLong * pageSize, pageSize), ledger)
    val p = parsePage(bytes)
    cache.put(id, p)
    p
  }

  /** Pre-warm the root (SQLite keeps hot pages resident once opened). */
  readPage(rootPageId, new FetchLedger)

  /** Drop the page cache (fresh-VM condition for cross-region runs),
    * keeping only the pre-warmed root.
    */
  def clearCache(): Unit = {
    cache.clear()
    readPage(rootPageId, new FetchLedger)
  }

  // ---- lookup ------------------------------------------------------------

  @annotation.tailrec
  private def leafFor(word: String, page: Page, ledger: FetchLedger): Vector[(String, BinPointer)] =
    page match {
      case Internal(es) =>
        leafFor(word, readPage(es(ExactPostings.floor(es.map(_._1), word))._2, ledger), ledger)
      case Leaf(es) => es
    }

  override def lookup(word: String, ledger: FetchLedger): IndexedSeq[Posting] =
    leafFor(word, readPage(rootPageId, ledger), ledger).find(_._1 == word)
      .fold[IndexedSeq[Posting]](Postings.empty)(e => built.read(store, e._2, ledger))

  override def search(word: String, topK: Option[Int]): SearchResult =
    built.search(store, word, topK)(lookup(word, _))

  override def indexBytes: Long = store.size(blobName) + built.bytesOf(store)
}
