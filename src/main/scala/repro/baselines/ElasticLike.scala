package repro.baselines

import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.core.{Postings, SearchResult}
import scala.util.hashing.MurmurHash3

/** Elasticsearch-like baseline. The paper deploys Elasticsearch over a
  * *Searchable Snapshot* mounted from cloud storage (§V-A0b) and observes
  * it is consistently the slowest system because it "spends much time in
  * mounting its searchable snapshots" (§V-B0b): per query, cold regions of
  * the snapshot's Lucene files are paged in as sizeable chunk reads
  * before the actual skip-list traversal can proceed.
  *
  * We model exactly that mechanism: a per-query series of dependent
  * snapshot-chunk reads (cache misses against a synthetic snapshot blob,
  * offsets keyed by the query term) followed by a full Lucene-like
  * skip-list lookup, then the shared document retrieval.
  *
  * @param chunkReads number of snapshot chunk cache-misses per query
  * @param chunkBytes bytes per chunk read (ES snapshot cache region size)
  */
final class ElasticLike(
    store: CloudStorage,
    inner: SkipListIndex,
    prefix: String,
    chunkReads: Int = 10,
    chunkBytes: Int = 1 << 20,
) extends SearchEngine {
  require(chunkReads >= 0 && chunkBytes >= 1024)

  override def name: String = "Elasticsearch-like (snapshot + skip list)"

  private val snapshotBlob = s"$prefix/snapshot"
  private val snapshotSize = 64 * chunkBytes
  store.put(snapshotBlob, new Array[Byte](snapshotSize))

  /** Dependent chunk faults: each offset depends on metadata read in the
    * previous chunk, so they serialize (the paper's wait-heavy pattern).
    */
  private[baselines] def mountFaults(word: String, ledger: FetchLedger): Unit = {
    var h = MurmurHash3.stringHash(word, 7)
    (0 until chunkReads).foreach { i =>
      val off = math.floorMod(h, snapshotSize / chunkBytes).toLong * chunkBytes
      store.getRange(RangeReq(snapshotBlob, off, chunkBytes), ledger)
      h = MurmurHash3.productHash((h, i))
    }
  }

  override def lookup(word: String, ledger: FetchLedger): Postings = {
    mountFaults(word, ledger)
    inner.lookup(word, ledger)
  }

  /** The skip list's search, with the mount faults inside the lookup. */
  override def search(word: String, topK: Option[Int]): SearchResult =
    inner.built.search(store, word, topK)(lookup(word, _))

  override def indexBytes: Long = inner.indexBytes + store.size(snapshotBlob)
}
