package repro.core

import java.io.ByteArrayOutputStream
import java.nio.{ByteBuffer, ByteOrder}

/** Compact binary serialization of superposts and header metadata.
  *
  * The paper serialises superposts with Protocol Buffers (§IV-C). Header
  * metadata here uses protobuf's unsigned LEB128 varints. Superposts
  * deviate: they are frame-of-reference blocks of 128 postings, whose key
  * deltas and lengths are bit-packed at each block's own widths, in the
  * style of Lucene's postings blocks and PFOR. They are about a third
  * smaller than varints and decode without a branch per byte, and a
  * block's header bounds its keys, so an intersection can tell which
  * blocks to merge. The codec is a bijection on sorted duplicate-free
  * postings lists (tested).
  */
object PostingsCodec {

  // ---- varint primitives -------------------------------------------------

  def writeVarLong(out: ByteArrayOutputStream, v0: Long): Unit = {
    require(v0 >= 0, s"varint of negative $v0")
    var v = v0
    while ((v & ~0x7fL) != 0) { out.write(((v & 0x7f) | 0x80).toInt); v >>>= 7 }
    out.write(v.toInt)
  }

  /** Reads varints, strings and pointers from `bytes`; the one varint
    * decoder of the codebase. Malformed input, truncated or wider than the
    * value read, throws an `IllegalArgumentException`.
    */
  final class Reader(val bytes: Array[Byte]) {
    private[core] var pos = 0
    def remaining: Int = bytes.length - pos
    // The array access is the bounds check: an explicit one in the loop
    // made superpost decode about half again as slow. The messages are
    // built out of line to keep this method small enough to inline.
    def readVarLong(): Long = try {
      var v = 0L
      var shift = 0
      while (true) {
        val b = bytes(pos) & 0xff
        pos += 1
        v |= (b & 0x7fL) << shift
        if ((b & 0x80) == 0) {
          // The tenth byte may hold bit 63 only: a higher bit would be lost.
          if (shift == 63 && b > 1) malformed("varint wider than 64 bits at byte", pos - 1)
          return v
        }
        shift += 7
        if (shift > 63) malformed("varint longer than ten bytes at byte", pos)
      }
      v // unreachable
    } catch {
      case _: ArrayIndexOutOfBoundsException => malformed("varint truncated at byte", pos)
    }
    def readVarInt(): Int = {
      val v = readVarLong()
      if (v < 0 || v > Int.MaxValue) malformed("varint outside [0, Int.MaxValue]:", v)
      v.toInt
    }
    def readString(): String = {
      val n = readVarInt()
      if (n > remaining) malformed(s"string at byte $pos overruns the input by", n - remaining)
      val s = new String(bytes, pos, n, "UTF-8"); pos += n; s
    }
    def readPointer(): BinPointer = BinPointer(readVarInt(), readVarInt(), readVarInt())
    def readEntries(): Vector[(String, BinPointer)] =
      Vector.fill(readVarInt())((readString(), readPointer()))
  }

  def writeString(out: ByteArrayOutputStream, s: String): Unit = {
    val b = s.getBytes("UTF-8")
    writeVarLong(out, b.length.toLong)
    out.write(b, 0, b.length)
  }

  def writePointer(out: ByteArrayOutputStream, p: BinPointer): Unit = {
    writeVarLong(out, p.block.toLong); writeVarLong(out, p.offset.toLong)
    writeVarLong(out, p.length.toLong)
  }

  /** A (term → pointer) table: the MHT's common words, a B-tree leaf and a
    * skip-list block all persist their entries in this one format.
    */
  def writeEntries(out: ByteArrayOutputStream, entries: Seq[(String, BinPointer)]): Unit = {
    writeVarLong(out, entries.size.toLong)
    entries.foreach { case (t, p) => writeString(out, t); writePointer(out, p) }
  }

  // ---- superpost codec ---------------------------------------------------

  /** Postings per block. */
  private final val BlockSize = 128
  /** Widest packed key delta: an offset step inside one blob, less one. */
  private final val MaxKeyWidth = 40
  /** Widest packed length: a non-negative `Int`. */
  private final val MaxLengthWidth = 31
  /** The fewest bytes a block takes: five one-byte header fields. */
  private final val MinBlockBytes = 5

  /** Encode a sorted duplicate-free postings list. Layout: the posting
    * count, then blocks of [[BlockSize]] postings (the last one shorter).
    * A block is a header of varints, then its bit-packed key deltas, then
    * its bit-packed lengths:
    *   - its first key, less the previous block's last key (at least 1),
    *     or the first block's first key itself;
    *   - its span, last key − first key;
    *   - the bit width of its key deltas less one, at most 40, and the bit
    *     width of its lengths, at most 31;
    *   - the number of its patches, then per patch: its position less the
    *     one before it (0 before the first) less one, its blob delta less
    *     one, and its absolute offset.
    * A patch is a posting whose blob differs from the one before it: its
    * packed delta is 0 and the patch gives its key. Every other posting's
    * key is the one before it plus its packed delta plus one, and the
    * widths come from those in-blob deltas alone. Values are packed
    * low bit first.
    */
  def encode(postings: Postings): Array[Byte] = {
    val keys = postings.keys
    val lengths = postings.lengths
    def blob(i: Int): Int = Posting.blobIdOf(keys(i))
    // Posting i's key less the one before it less one; -1 at a patch.
    def delta(i: Int): Long = if (blob(i) == blob(i - 1)) keys(i) - keys(i - 1) - 1 else -1L
    val out = new ByteArrayOutputStream(keys.length * 3 + 8)
    writeVarLong(out, keys.length.toLong)
    var start = 0
    while (start < keys.length) {
      val end = math.min(start + BlockSize, keys.length)
      var maxDelta = 0L
      var maxLength = 0
      var patches = 0
      var i = start
      while (i < end) {
        require(keys(i) > (if (i == 0) -1L else keys(i - 1)), s"postings not strictly sorted at $i")
        require(lengths(i) >= 0, s"negative length at $i")
        if (i > start) {
          if (delta(i) < 0) patches += 1 else maxDelta = math.max(maxDelta, delta(i))
        }
        maxLength = math.max(maxLength, lengths(i))
        i += 1
      }
      val keyWidth = widthOf(maxDelta)
      val lengthWidth = widthOf(maxLength.toLong)
      writeVarLong(out, keys(start) - (if (start == 0) 0L else keys(start - 1)))
      writeVarLong(out, keys(end - 1) - keys(start))
      writeVarLong(out, keyWidth.toLong)
      writeVarLong(out, lengthWidth.toLong)
      writeVarLong(out, patches.toLong)
      var at = start
      i = start + 1
      while (i < end) {
        if (delta(i) < 0) {
          writeVarLong(out, (i - at - 1).toLong)
          writeVarLong(out, (blob(i) - blob(i - 1) - 1).toLong)
          writeVarLong(out, Posting.offsetOf(keys(i)))
          at = i
        }
        i += 1
      }
      pack(out, end - start - 1, keyWidth)(j => math.max(delta(start + 1 + j), 0L))
      pack(out, end - start, lengthWidth)(j => lengths(start + j).toLong)
      start = end
    }
    out.toByteArray
  }

  private def widthOf(max: Long): Int = 64 - java.lang.Long.numberOfLeadingZeros(max)

  /** Writes `n` values of `width` bits, low bit first, in whole bytes. */
  private def pack(out: ByteArrayOutputStream, n: Int, width: Int)(value: Int => Long): Unit = {
    var acc = 0L // fewer than 8 bits wait in acc, so a value of up to 40 bits fits
    var bits = 0
    var j = 0
    while (j < n) {
      acc |= value(j) << bits
      bits += width
      while (bits >= 8) { out.write(acc.toInt & 0xff); acc >>>= 8; bits -= 8 }
      j += 1
    }
    if (bits > 0) out.write(acc.toInt & 0xff)
  }

  private def bytesFor(n: Int, width: Int): Int = (n * width + 7) >>> 3

  private def malformed(what: String, value: Long): Nothing =
    throw new IllegalArgumentException(s"$what $value")

  /** Decode a superpost produced by [[encode]] into packed keys. Malformed
    * input throws an `IllegalArgumentException` (see [[Blocks]]).
    */
  def decode(bytes: Array[Byte]): Postings = decodeAll(new Blocks(bytes))

  private def decodeAll(blocks: Blocks): Postings = {
    val keys = new Array[Long](blocks.count)
    val lengths = new Array[Int](blocks.count)
    var at = 0
    while (blocks.next()) {
      blocks.keys(keys, at)
      blocks.lengths(lengths, at)
      at += blocks.size
    }
    new Postings(keys, lengths)
  }

  /** The intersection of the superposts' postings lists, computed while
    * they are decoded. A superpost whose bytes equal one already taken is
    * dropped: a sorted list intersects with itself to itself. Of the rest,
    * the one with the fewest postings is decoded in full; every other one
    * is read keys only, block by block, and a block whose key range holds
    * a remaining candidate is merged with them. Every block of every
    * superpost is unpacked and checked as [[decode]] checks it. Equals
    * `Posting.intersectSorted(superposts.map(decode))`.
    */
  def decodeIntersect(superposts: Seq[Array[Byte]]): Postings = {
    if (superposts.isEmpty) return Postings.empty
    val distinct = superposts.foldLeft(Vector.empty[Array[Byte]]) { (taken, s) =>
      if (taken.exists(java.util.Arrays.equals(_, s))) taken else taken :+ s
    }
    val blocks = distinct.map(new Blocks(_))
    val shortest = blocks.minBy(_.count)
    val decoded = decodeAll(shortest)
    val scratch = new Array[Long](BlockSize)
    var n = decoded.size
    blocks.foreach { b =>
      if (b ne shortest) n = b.intersect(decoded.keys, decoded.lengths, n, scratch)
    }
    Postings.prefix(decoded.keys, decoded.lengths, n)
  }

  /** Reads a superpost block by block. The constructor reads the posting
    * count and checks that the bytes can hold that many blocks. [[next]]
    * reads a block's header and checks it: its first key must be above
    * the previous block's last key, its widths at most 40 and 31 bits, its
    * patches inside the block and their keys packable, and its sections
    * inside the bytes; after the last block no byte may be left. [[keys]]
    * unpacks the block's keys and checks that no in-blob delta carries an
    * offset past 2^40 and that the last key is the first plus the span.
    * Each fault throws an `IllegalArgumentException`.
    */
  private final class Blocks(bytes: Array[Byte]) {
    private val in = new Reader(bytes)
    val count: Int = in.readVarInt()
    if ((count + BlockSize - 1L) / BlockSize * MinBlockBytes > in.remaining)
      malformed(s"superpost of ${in.remaining} bytes after its count claims postings:", count)
    private val words = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    private var left = count
    /** Postings in the current block. */
    var size = 0
    private var first = 0L
    private var last = -1L
    private var keyWidth = 0
    private var lengthWidth = 0
    private var patches = 0
    private var patchesAt = 0
    private var keysAt = 0
    private var lengthsAt = 0

    /** Reads the next block's header; false after the last block. */
    def next(): Boolean = {
      if (left == 0) {
        if (in.remaining != 0) malformed("superpost has trailing bytes:", in.remaining)
        return false
      }
      size = math.min(BlockSize, left)
      left -= size
      val step = in.readVarLong()
      first = math.max(last, 0L) + step
      if (step < 0 || first <= last)
        malformed("block's first key is not above the previous block's last key; step", step)
      val span = in.readVarLong()
      last = first + span
      if (span < 0 || last < 0) malformed("block has key span", span)
      keyWidth = in.readVarInt()
      if (keyWidth > MaxKeyWidth) malformed("block has key width", keyWidth)
      lengthWidth = in.readVarInt()
      if (lengthWidth > MaxLengthWidth) malformed("block has length width", lengthWidth)
      patches = in.readVarInt()
      if (patches >= size) malformed(s"block of $size postings has patches:", patches)
      patchesAt = in.pos
      var at = 0L
      var blob = first >>> Posting.OffsetBits
      var p = 0
      while (p < patches) {
        at += in.readVarInt() + 1L
        if (at >= size) malformed(s"block of $size postings has a patch at", at)
        blob += in.readVarInt() + 1L
        if (blob >= Posting.MaxBlobId) malformed("patch moves to blob", blob)
        val offset = in.readVarLong()
        if (offset < 0 || offset >= Posting.MaxOffset) malformed("patch has offset", offset)
        p += 1
      }
      keysAt = in.pos
      lengthsAt = keysAt + bytesFor(size - 1, keyWidth)
      val end = lengthsAt + bytesFor(size, lengthWidth)
      if (end > bytes.length)
        malformed(s"block of ${bytes.length} bytes is truncated: it ends at", end)
      in.pos = end
      true
    }

    /** The 8 bytes from `at` as a little-endian Long, zeros past the end. */
    private def load(at: Int): Long =
      if (at <= bytes.length - 8) words.getLong(at)
      else {
        var v = 0L
        var k = bytes.length - 1
        while (k >= at) { v = v << 8 | (bytes(k) & 0xff); k -= 1 }
        v
      }

    /** Unpacks the current block's keys into `dst` from `at`. */
    def keys(dst: Array[Long], at: Int): Unit = {
      val end = in.pos
      in.pos = patchesAt
      val width = keyWidth
      val mask = (1L << width) - 1
      var key = first
      dst(at) = key
      var i = 1
      var p = 0
      var patch = if (patches > 0) in.readVarInt() + 1 else size
      while (i < size) {
        val blob = key >>> Posting.OffsetBits
        while (i < patch) {
          val bit = (i - 1) * width
          key += (load(keysAt + (bit >>> 3)) >>> (bit & 7) & mask) + 1
          dst(at + i) = key
          i += 1
        }
        if (key >>> Posting.OffsetBits != blob)
          malformed("in-blob delta carries the offset past 2^40 by posting", i - 1)
        if (i < size) {
          key = (blob + in.readVarInt() + 1) << Posting.OffsetBits | in.readVarLong()
          dst(at + i) = key
          i += 1
          p += 1
          patch = if (p < patches) patch + in.readVarInt() + 1 else size
        }
      }
      if (key != last)
        malformed(s"block's last key disagrees with its span: ${last - first}, decoded", key - first)
      in.pos = end
    }

    /** Unpacks the current block's lengths into `dst` from `at`. */
    def lengths(dst: Array[Int], at: Int): Unit = {
      val width = lengthWidth
      val mask = (1L << width) - 1
      var i = 0
      while (i < size) {
        val bit = i * width
        dst(at + i) = (load(lengthsAt + (bit >>> 3)) >>> (bit & 7) & mask).toInt
        i += 1
      }
    }

    /** Intersects the first `n` entries of `cands` and `lengths`, a sorted
      * list, with this superpost, read to its end keys only: the entries
      * whose key it also holds move to the front, and their number is
      * returned. Inside a block the merge steps both cursors without a
      * branch on the data; a block whose range holds no entry is not merged.
      */
    def intersect(cands: Array[Long], lengths: Array[Int], n: Int, scratch: Array[Long]): Int = {
      var i = 0
      var kept = 0
      while (next()) {
        keys(scratch, 0)
        while (i < n && cands(i) < first) i += 1
        if (i < n && cands(i) <= last) {
          var j = 0
          while (i < n && j < size) {
            val a = cands(i)
            val b = scratch(j)
            cands(kept) = a // kept <= i: a slot already read, or a itself
            lengths(kept) = lengths(i)
            kept += (if (a == b) 1 else 0)
            i += (if (a <= b) 1 else 0)
            j += (if (b <= a) 1 else 0)
          }
        }
      }
      kept
    }
  }
}
