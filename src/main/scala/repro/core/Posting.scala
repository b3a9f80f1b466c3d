package repro.core

import scala.collection.immutable

/** One posting: the byte range of a document inside a corpus blob.
  *
  * Blob names are compressed to integer keys (`blobId`) via the string
  * table the Builder persists in the header block (§IV-C: "AIRPHANT
  * compresses repeated strings within postings into integer keys").
  * Postings are identified — for union/intersection purposes — by
  * (blobId, offset); the length rides along for the range read.
  */
final case class Posting(blobId: Int, offset: Long, length: Int) extends Ordered[Posting] {
  require(blobId >= 0 && offset >= 0 && length >= 0, s"bad posting: $this")

  override def compare(that: Posting): Int = {
    val c = java.lang.Integer.compare(blobId, that.blobId)
    if (c != 0) c else java.lang.Long.compare(offset, that.offset)
  }

  /** Packed identity `blobId << 40 | offset`; its order is the posting order. */
  def key: Long = Posting.pack(blobId, offset)
}

object Posting {
  private[core] final val OffsetBits = 40
  /** Exclusive bound on a packable offset (blobs under 1 TiB). */
  private[core] final val MaxOffset: Long = 1L << OffsetBits
  /** Exclusive bound on a packable blob id (keeps every key non-negative). */
  private[core] final val MaxBlobId: Int = 1 << (63 - OffsetBits)

  /** Packs (blobId, offset) into one `Long` key. Throws rather than let two
    * postings alias one key.
    */
  def pack(blobId: Int, offset: Long): Long = {
    if (blobId < 0 || blobId >= MaxBlobId)
      throw new IllegalArgumentException(s"blobId $blobId outside [0, $MaxBlobId) of a posting key")
    if (offset < 0 || offset >= MaxOffset)
      throw new IllegalArgumentException(s"offset $offset outside [0, $MaxOffset) of a posting key")
    (blobId.toLong << OffsetBits) | offset
  }

  private[core] def blobIdOf(key: Long): Int = (key >>> OffsetBits).toInt
  private[core] def offsetOf(key: Long): Long = key & (MaxOffset - 1)

  /** Intersection of sorted, duplicate-free postings lists (the IoU in
    * IoU Sketch). Walks the smallest list and advances one cursor per
    * other list over the packed keys; stops when any cursor runs out.
    * Takes `IndexedSeq[Posting]` rather than [[Postings]] only because
    * perfbench's CPU replay calls it with that type.
    */
  def intersectSorted(lists: Seq[IndexedSeq[Posting]]): Postings = {
    if (lists.isEmpty) return Postings.empty
    val bySize = lists.map(Postings.from).sortBy(_.size)
    val smallest = bySize.head
    if (bySize.size == 1 || smallest.isEmpty) return smallest
    val others = bySize.tail.map(_.keys).toArray
    val cursors = new Array[Int](others.length)
    val keys = new Array[Long](smallest.size)
    val lengths = new Array[Int](smallest.size)
    var kept = 0
    var exhausted = false
    var i = 0
    while (!exhausted && i < smallest.size) {
      val key = smallest.keys(i)
      var inAll = true
      var j = 0
      while (inAll && j < others.length) {
        val a = others(j)
        var c = cursors(j)
        while (c < a.length && a(c) < key) c += 1
        cursors(j) = c
        exhausted = c == a.length
        inAll = !exhausted && a(c) == key
        j += 1
      }
      if (inAll) { keys(kept) = key; lengths(kept) = smallest.lengths(i); kept += 1 }
      i += 1
    }
    Postings.prefix(keys, lengths, kept)
  }

  /** Union of sorted, duplicate-free postings lists (superpost merge): a
    * k-way merge on the packed keys that takes the smallest head key of
    * the lists at each step. A key carries the same length in every list
    * (it names one document), so the first list's length is kept.
    */
  def unionSorted(lists: Seq[Postings]): Postings = {
    val ps = lists.filter(_.nonEmpty).toArray
    if (ps.length <= 1) return ps.headOption.getOrElse(Postings.empty)
    val keys = new Array[Long](ps.map(_.size).sum)
    val lengths = new Array[Int](keys.length)
    val cursors = new Array[Int](ps.length)
    var n = 0
    var from = 0
    while (from >= 0) {
      from = -1
      var j = 0
      while (j < ps.length) {
        val c = cursors(j)
        if (c < ps(j).size && (from < 0 || ps(j).keys(c) < keys(n))) {
          from = j; keys(n) = ps(j).keys(c); lengths(n) = ps(j).lengths(c)
        }
        j += 1
      }
      if (from >= 0) {
        j = 0
        while (j < ps.length) {
          val c = cursors(j)
          if (c < ps(j).size && ps(j).keys(c) == keys(n)) cursors(j) = c + 1
          j += 1
        }
        n += 1
      }
    }
    Postings.prefix(keys, lengths, n)
  }
}

/** A sorted postings list in packed form: `keys(i)` is posting i's
  * [[Posting.key]] and `lengths(i)` its length. The one postings type of
  * the library: superposts decode into it and are encoded from it, the set
  * algebra runs on it, every lookup returns it and the document fetch reads
  * its ranges from it. A [[Posting]] is built only when an element is read
  * through the `IndexedSeq` interface, which remains for perfbench's CPU
  * replay and for tests. The arrays are shared, not copied: nothing may
  * write to them.
  */
final class Postings(val keys: Array[Long], val lengths: Array[Int])
    extends immutable.IndexedSeq[Posting] {
  require(keys.length == lengths.length, s"${keys.length} keys but ${lengths.length} lengths")

  override def length: Int = keys.length
  override def apply(i: Int): Posting =
    Posting(Posting.blobIdOf(keys(i)), Posting.offsetOf(keys(i)), lengths(i))
  override protected[this] def className: String = "Postings"
}

object Postings {
  val empty: Postings = new Postings(Array.emptyLongArray, Array.emptyIntArray)

  /** The first `n` entries of the given arrays (no copy if that is all). */
  private[core] def prefix(keys: Array[Long], lengths: Array[Int], n: Int): Postings =
    if (n == keys.length) new Postings(keys, lengths)
    else new Postings(java.util.Arrays.copyOf(keys, n), java.util.Arrays.copyOf(lengths, n))

  /** Packs a sorted postings list (no copy if it is packed already): the
    * input of [[Posting.intersectSorted]].
    */
  def from(ps: IndexedSeq[Posting]): Postings = ps match {
    case p: Postings => p
    case _ =>
      val keys = new Array[Long](ps.size)
      val lengths = new Array[Int](ps.size)
      var i = 0
      while (i < ps.size) { keys(i) = ps(i).key; lengths(i) = ps(i).length; i += 1 }
      new Postings(keys, lengths)
  }
}
