package repro.cloudstore

import java.util.concurrent.ConcurrentHashMap
import scala.jdk.CollectionConverters._

/** In-process blob store with simulated network cost.
  *
  * Bytes live in a concurrent map (our corpora are ~10–100 MB, well within
  * heap). It implements the one read of [[CloudStorage]], a k-of-n batch,
  * and the trait derives every other read from it. A read is a memory
  * copy, so a batch is read on the caller's thread, its winners in the
  * network model's completion order. The paper's 32 download
  * threads (§V-A0c) are modelled where they set the latency: by
  * [[NetworkModel.concurrency]] in virtual time. Thread-safe: Spark
  * local-mode tasks read concurrently through the [[CloudStorage.named]]
  * registry, and so do the concurrent callers of the tests.
  */
final class LocalCloudStorage(initialModel: NetworkModel) extends CloudStorage {

  // Mutable so cross-region experiments (paper Fig. 7) can move the
  // "compute node" without re-uploading corpus and index blobs.
  @volatile private var currentModel: NetworkModel = initialModel
  def model: NetworkModel = currentModel
  def setModel(m: NetworkModel): Unit = { currentModel = m }

  private val blobs = new ConcurrentHashMap[String, Array[Byte]]()

  override def put(name: String, bytes: Array[Byte]): Unit = blobs.put(name, bytes)

  override def size(name: String): Long = lookup(name).length.toLong

  override def list(): Seq[String] = blobs.keys.asScala.toSeq

  private def lookup(name: String): Array[Byte] = {
    val b = blobs.get(name)
    require(b != null, s"blob not found: $name")
    b
  }

  private def slice(req: RangeReq): Array[Byte] = {
    val b = lookup(req.blob)
    // Written so that no sum can overflow: an offset past Int.MaxValue is
    // rejected here, never narrowed by `toInt` into a valid slice.
    require(req.offset >= 0 && req.length >= 0 && req.offset <= b.length - req.length,
      s"range out of bounds: $req in blob of ${b.length} bytes")
    java.util.Arrays.copyOfRange(b, req.offset.toInt, req.offset.toInt + req.length)
  }

  override def getRangesKofN(reqs: Seq[RangeReq], k: Int, ledger: FetchLedger): Seq[(Int, Array[Byte])] = {
    val rs = reqs.toIndexedSeq
    val (cost, winners) = model.batch(rs, k)
    val out = winners.map(i => (i, slice(rs(i))))
    ledger.record(cost)
    out
  }
}
