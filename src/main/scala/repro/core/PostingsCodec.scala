package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}

/** Compact binary serialization of superposts and header metadata.
  *
  * The paper serialises superposts with Protocol Buffers (§IV-C); the
  * property that matters for the latency model is compactness, which we
  * obtain the same way protobuf does — unsigned LEB128 varints plus
  * delta-encoding of the sorted (blobId, offset) pairs. The codec is a
  * bijection on sorted duplicate-free postings lists (tested).
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
    private var pos = 0
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

  /** Encode a sorted duplicate-free postings list. Layout:
    * count, then per posting: blobId delta, offset (delta within the same
    * blob, absolute when the blob changes), length.
    */
  def encode(postings: Postings): Array[Byte] = {
    val keys = postings.keys
    val out = new ByteArrayOutputStream(keys.length * 4 + 8)
    writeVarLong(out, keys.length.toLong)
    var prev = 0L // the first posting's deltas are from blob 0, offset 0
    var i = 0
    while (i < keys.length) {
      val key = keys(i)
      require(if (i == 0) key >= 0 else key > prev, s"postings not strictly sorted at $i")
      val blobDelta = Posting.blobIdOf(key) - Posting.blobIdOf(prev)
      writeVarLong(out, blobDelta.toLong)
      val offBase = if (blobDelta == 0) Posting.offsetOf(prev) else 0L
      writeVarLong(out, Posting.offsetOf(key) - offBase)
      writeVarLong(out, postings.lengths(i).toLong)
      prev = key
      i += 1
    }
    out.toByteArray
  }

  private def malformed(what: String, value: Long): Nothing =
    throw new IllegalArgumentException(s"$what $value")

  /** Decode a superpost previously produced by [[encode]] straight into
    * packed keys, rejecting the malformed input [[readPostings]] lists.
    */
  def decode(bytes: Array[Byte]): Postings = {
    val count = postingCount(bytes)
    val keys = new Array[Long](count)
    val lengths = new Array[Int](count)
    readPostings(bytes, keys, lengths, -1)
    new Postings(keys, lengths)
  }

  /** The intersection of the superposts' postings lists, computed while
    * they are decoded: the superpost with the fewest postings (the first
    * varint of each) is decoded in full, and every other one is streamed
    * past its keys without building arrays. Every superpost is read to its
    * end and checked as [[decode]] checks it. Equals
    * `Posting.intersectSorted(superposts.map(decode))`.
    */
  def decodeIntersect(superposts: Seq[Array[Byte]]): Postings = {
    if (superposts.isEmpty) return Postings.empty
    val counts = superposts.map(postingCount)
    val shortest = counts.indexOf(counts.min)
    val decoded = decode(superposts(shortest))
    var n = decoded.size
    superposts.indices.foreach { j =>
      if (j != shortest) n = readPostings(superposts(j), decoded.keys, decoded.lengths, n)
    }
    Postings.prefix(decoded.keys, decoded.lengths, n)
  }

  /** A superpost's first varint, its posting count, once checked that the
    * rest of the bytes can hold that many postings.
    */
  private def postingCount(superpost: Array[Byte]): Int = {
    val r = new Reader(superpost)
    val count = r.readVarInt()
    if (count > r.remaining / 3)
      throw new IllegalArgumentException(s"superpost claims $count postings in ${r.remaining} bytes")
    count
  }

  /** Reads the postings of a superpost whose count [[postingCount]] has
    * checked, and checks each: a (blobId, offset) a key cannot hold, a key
    * not above the one before it or a length outside an `Int` is rejected.
    * With `n < 0` the postings are stored in `keys` and `lengths`.
    * Otherwise the first `n` entries of `keys` and `lengths` are a sorted
    * list to intersect with: the entries whose key the superpost also holds
    * move to the front, and their number is returned. Every posting is read
    * either way, so that a corrupt tail throws. (The one loop keeps the
    * reader's position in a register: a reader passed in would not be.)
    */
  private def readPostings(superpost: Array[Byte], keys: Array[Long], lengths: Array[Int], n: Int): Int = {
    val r = new Reader(superpost)
    val count = r.readVarInt()
    var blob = 0
    var offset = 0L
    var prev = -1L
    var kept = 0
    var i = 0
    var read = 0
    while (read < count) {
      val blobDelta = r.readVarInt()
      blob += blobDelta
      offset = (if (blobDelta == 0) offset else 0L) + r.readVarLong()
      val key = Posting.pack(blob, offset)
      if (key <= prev) malformed("posting not above the one before it, index", read)
      val length = r.readVarLong()
      if (length < 0 || length > Int.MaxValue) malformed("posting has length", length)
      prev = key
      if (n < 0) {
        keys(read) = key
        lengths(read) = length.toInt
      } else {
        while (i < n && keys(i) < key) i += 1
        if (i < n && keys(i) == key) { keys(kept) = key; lengths(kept) = lengths(i); kept += 1; i += 1 }
      }
      read += 1
    }
    kept
  }
}
