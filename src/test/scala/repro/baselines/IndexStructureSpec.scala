package repro.baselines

import org.scalatest.funsuite.AnyFunSuite

import repro.cloudstore.{FetchLedger, LocalCloudStorage, NetworkModel}
import repro.core.{BinPointer, Posting, Postings, PostingsCodec}

/** Structural tests of the skip list and B-tree term indexes at real
  * depth: a 20k-term dictionary forces multiple levels, which the
  * Spark-backed suites (tiny corpora) never reach. Built without Spark by
  * assembling the [[ExactPostings.Built]] substrate by hand.
  */
class IndexStructureSpec extends AnyFunSuite {

  private val nTerms = 20000

  /** Dictionary of sorted fixed-width terms, each with 1–3 postings. */
  private def substrate(store: LocalCloudStorage): ExactPostings.Built = {
    val words = Array.tabulate(nTerms)(i => f"term$i%06d")
    val buf = new java.io.ByteArrayOutputStream()
    val pointers = Map.newBuilder[String, BinPointer]
    words.zipWithIndex.foreach { case (w, i) =>
      val ps = Vector.tabulate(i % 3 + 1)(j => Posting(0, (i * 3 + j).toLong * 100, 80))
      val bytes = PostingsCodec.encode(Postings.from(ps))
      pointers += w -> BinPointer(0, buf.size(), bytes.length)
      buf.write(bytes, 0, bytes.length)
    }
    store.put("exact/postings-0", buf.toByteArray)
    store.put("docs-0", new Array[Byte](nTerms * 3 * 100 + 1000))
    ExactPostings.Built(words, pointers.result(), Array("exact/postings-0"), Array("docs-0"))
  }

  private def expected(i: Int): Vector[Posting] =
    Vector.tabulate(i % 3 + 1)(j => Posting(0, (i * 3 + j).toLong * 100, 80))

  test("skip list at depth: every term resolves to its exact postings") {
    val store = new LocalCloudStorage(NetworkModel())
    val sl = new SkipListIndex(store, substrate(store), "sl", cacheBlocks = 0)
    Seq(0, 1, 255, 256, 4095, 9999, 19998, 19999).foreach { i =>
      val got = sl.lookup(f"term$i%06d", new FetchLedger)
      assert(got == expected(i), s"term $i")
    }
  }

  test("skip list at depth: absent probes fall between terms and return empty") {
    val store = new LocalCloudStorage(NetworkModel())
    val sl = new SkipListIndex(store, substrate(store), "sl", cacheBlocks = 0)
    Seq("aaa", "term000100x", "term020000", "zzz").foreach { w =>
      assert(sl.lookup(w, new FetchLedger).isEmpty, w)
    }
  }

  test("skip list descends one dependent read per level (cold cache)") {
    val store = new LocalCloudStorage(NetworkModel())
    val sl = new SkipListIndex(store, substrate(store), "sl", cacheBlocks = 0)
    // 20000 terms / 256-entry leaves = 79 leaf blocks; 79/32 = 3 level-1
    // blocks; top holds 3 entries. Descent = 2 reads + postings = 3 steps.
    val ledger = new FetchLedger
    sl.lookup("term010000", ledger)
    assert(ledger.stats.roundTripSteps == 3, s"steps ${ledger.stats.roundTripSteps}")
  }

  test("skip list cache trims the descent on repeats") {
    val store = new LocalCloudStorage(NetworkModel())
    val sl = new SkipListIndex(store, substrate(store), "sl", cacheBlocks = 8)
    val l1 = new FetchLedger; sl.lookup("term010000", l1)
    val l2 = new FetchLedger; sl.lookup("term010000", l2)
    assert(l2.stats.roundTripSteps < l1.stats.roundTripSteps)
    sl.clearCache()
    val l3 = new FetchLedger; sl.lookup("term010000", l3)
    assert(l3.stats.roundTripSteps == l1.stats.roundTripSteps)
  }

  test("b-tree at depth: every term resolves to its exact postings") {
    val store = new LocalCloudStorage(NetworkModel())
    val bt = new BTreeIndex(store, substrate(store), "bt", cachePages = 1)
    Seq(0, 1, 169, 170, 8191, 9999, 19999).foreach { i =>
      val got = bt.lookup(f"term$i%06d", new FetchLedger)
      assert(got == expected(i), s"term $i")
    }
  }

  test("b-tree at depth: absent probes return empty") {
    val store = new LocalCloudStorage(NetworkModel())
    val bt = new BTreeIndex(store, substrate(store), "bt", cachePages = 1)
    Seq("a", "term0001005", "zzzz").foreach { w =>
      assert(bt.lookup(w, new FetchLedger).isEmpty, w)
    }
  }

  test("b-tree pages never overflow the 4 KiB page size") {
    val store = new LocalCloudStorage(NetworkModel())
    new BTreeIndex(store, substrate(store), "bt")
    assert(store.size("bt/btree") % 4096 == 0)
  }

  test("b-tree traversal with a cold cache is root->leaf dependent reads") {
    val store = new LocalCloudStorage(NetworkModel())
    val bt = new BTreeIndex(store, substrate(store), "bt", cachePages = 1)
    // 20000 terms at ~26 B/entry => ~133 leaf pages whose separators all
    // fit in one root page: a depth-2 tree. With the root pre-warmed, a
    // cold lookup pays exactly 1 leaf page read + 1 postings read.
    val ledger = new FetchLedger
    bt.lookup("term015000", ledger)
    assert(ledger.stats.roundTripSteps == 2, s"steps ${ledger.stats.roundTripSteps}")
  }

  test("larger page cache strictly reduces traversal cost") {
    val store = new LocalCloudStorage(NetworkModel())
    val built = substrate(store)
    val cold = new BTreeIndex(store, built, "bt1", cachePages = 1)
    val warm = new BTreeIndex(store, built, "bt2", cachePages = 500)
    val words = (0 until 200).map(i => f"term${i * 97}%06d")
    def steps(bt: BTreeIndex) = words.map { w =>
      val l = new FetchLedger; bt.lookup(w, l); l.stats.roundTripSteps
    }.sum
    val sCold = steps(cold)
    words.foreach(w => warm.lookup(w, new FetchLedger)) // warm it up
    val sWarm = steps(warm)
    assert(sWarm < sCold, s"warm $sWarm vs cold $sCold")
  }

  private def crc32(bytes: Array[Byte]): Long = {
    val crc = new java.util.zip.CRC32
    crc.update(bytes)
    crc.getValue
  }

  test("the persisted skip-list and b-tree formats are pinned") {
    val store = new LocalCloudStorage(NetworkModel())
    val built = substrate(store)
    new SkipListIndex(store, built, "sl")
    new BTreeIndex(store, built, "bt")
    val levels = store.list().filter(_.startsWith("sl/skiplist-")).sorted
    assert(levels.map(b => crc32(store.getNoCost(b))) == Seq(713447615L, 4128904943L))
    assert(crc32(store.getNoCost("bt/btree")) == 1988688567L)
  }

  test("elastic-like over the deep skip list still answers exactly") {
    val store = new LocalCloudStorage(NetworkModel())
    val built = substrate(store)
    val sl = new SkipListIndex(store, built, "sl", cacheBlocks = 0)
    val es = new ElasticLike(store, sl, "es", chunkReads = 3, chunkBytes = 64 * 1024)
    val ledger = new FetchLedger
    val got = es.lookup("term000777", ledger)
    assert(got == expected(777))
    assert(ledger.stats.roundTripSteps == 3 + 3) // 3 chunk faults + descent
  }
}
