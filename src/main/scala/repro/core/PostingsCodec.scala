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

  final class Reader(val bytes: Array[Byte]) {
    private var pos = 0
    def remaining: Int = bytes.length - pos
    def readVarLong(): Long = {
      var shift = 0; var v = 0L
      while (true) {
        val b = bytes(pos) & 0xff; pos += 1
        v |= (b & 0x7fL) << shift
        if ((b & 0x80) == 0) return v
        shift += 7
        require(shift < 64, "malformed varint")
      }
      v // unreachable
    }
    def readVarInt(): Int = {
      val v = readVarLong()
      require(v <= Int.MaxValue, s"varint $v exceeds Int")
      v.toInt
    }
    def readString(): String = {
      val n = readVarInt()
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
  def encode(postings: IndexedSeq[Posting]): Array[Byte] = {
    val out = new ByteArrayOutputStream(postings.size * 4 + 8)
    writeVarLong(out, postings.size.toLong)
    var prevBlob = 0
    var prevOffset = 0L
    var i = 0
    while (i < postings.size) {
      val p = postings(i)
      if (i > 0) require(postings(i - 1) < p, s"postings not strictly sorted at $i")
      val blobDelta = p.blobId - prevBlob
      writeVarLong(out, blobDelta.toLong)
      val offBase = if (blobDelta == 0) prevOffset else 0L
      writeVarLong(out, p.offset - offBase)
      writeVarLong(out, p.length.toLong)
      prevBlob = p.blobId
      prevOffset = p.offset
      i += 1
    }
    out.toByteArray
  }

  /** Decode a superpost previously produced by [[encode]] straight into
    * packed keys; a (blobId, offset) a key cannot hold, or a negative
    * length, is rejected.
    */
  def decode(bytes: Array[Byte]): Postings = {
    val r = new Reader(bytes)
    val n = r.readVarInt()
    require(n >= 0 && n <= r.remaining / 3, s"superpost claims $n postings in ${r.remaining} bytes")
    val keys = new Array[Long](n)
    val lengths = new Array[Int](n)
    var blob = 0
    var offset = 0L
    var i = 0
    while (i < n) {
      val blobDelta = r.readVarInt()
      blob += blobDelta
      val offBase = if (blobDelta == 0) offset else 0L
      offset = offBase + r.readVarLong()
      keys(i) = Posting.pack(blob, offset)
      val length = r.readVarInt()
      require(length >= 0, s"posting $i has length $length")
      lengths(i) = length
      i += 1
    }
    new Postings(keys, lengths)
  }
}
