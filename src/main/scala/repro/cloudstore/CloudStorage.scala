package repro.cloudstore

import java.util.concurrent.ConcurrentHashMap

import scala.collection.immutable.ArraySeq
import scala.jdk.CollectionConverters._

/** One byte-range request against a named blob — the unit of the paper's
  * random-read access pattern (§III-A: postings and documents are packed
  * into few blobs and read via `(blob, offset, length)` range GETs).
  */
final case class RangeReq(blob: String, offset: Long, length: Int) {
  def key: String = s"$blob@$offset+$length"
}

/** Simulated cloud object storage.
  *
  * All reads return real bytes *and* account simulated network cost into
  * the caller's [[FetchLedger]] via a deterministic [[NetworkModel]] —
  * absolute wall-clock is not measured; the ledger's virtual time is the
  * experimental observable (see DESIGN.md §1 for why this substitution
  * preserves the paper's result shape).
  *
  * Writes (index building) are not latency-accounted: the paper evaluates
  * query latency, and its Builder runs offline on a large VM.
  */
trait CloudStorage {

  /** Upload (or overwrite) a blob. */
  def put(name: String, bytes: Array[Byte]): Unit

  /** Size of a blob in bytes; throws if absent. */
  def size(name: String): Long

  /** Blob names currently stored (unordered). */
  def list(): Seq[String]

  /** Total stored bytes — used for the paper's index-storage-size results. */
  def totalBytes: Long = list().map(size).sum

  /** The one read: issue `reqs` as ONE concurrent batch (one sequential
    * step in the ledger) and wait for the `k` of them that finish first.
    * This is the IoU Sketch lookup primitive: no request depends on
    * another, so they are issued together and the batch costs roughly the
    * slowest stream. A plain batch needs all of them (`k = reqs.size`);
    * built-in replication (§IV-G) issues L+ and needs any L. Returns the
    * `k` winners in the deterministic completion order of the network
    * model, paired with the index of the request that produced each.
    */
  def getRangesKofN(reqs: Seq[RangeReq], k: Int, ledger: FetchLedger): Seq[(Int, Array[Byte])]

  /** Read many ranges as one batch that needs every one of them, in
    * request order. An empty batch is free: no ledger step.
    */
  def getRangesParallel(reqs: Seq[RangeReq], ledger: FetchLedger): Seq[Array[Byte]] = {
    if (reqs.isEmpty) return Nil
    val out = new Array[Array[Byte]](reqs.size)
    getRangesKofN(reqs, reqs.size, ledger).foreach { case (i, bytes) => out(i) = bytes }
    ArraySeq.unsafeWrapArray(out)
  }

  /** Read one byte range as one request: a batch of one. */
  def getRange(req: RangeReq, ledger: FetchLedger): Array[Byte] =
    getRangesKofN(Seq(req), 1, ledger).head._2

  /** Read a whole blob as one request. */
  def get(name: String, ledger: FetchLedger): Array[Byte] =
    getRange(RangeReq(name, 0L, Math.toIntExact(size(name))), ledger)

  /** Raw bytes with zero accounted cost — for builders/tests only. */
  def getNoCost(name: String): Array[Byte] = get(name, new FetchLedger)
}

object CloudStorage {
  private val registry = new ConcurrentHashMap[String, CloudStorage]()

  /** Register a store under a bucket name so executor-side code (e.g. the
    * DataSourceV2 partition readers running in local-mode task threads)
    * can reach the same instance.
    */
  def register(bucket: String, store: CloudStorage): CloudStorage = {
    registry.put(bucket, store); store
  }

  def named(bucket: String): CloudStorage = {
    val s = registry.get(bucket)
    require(s != null, s"no CloudStorage registered under '$bucket' " +
      s"(known: ${registry.keys.asScala.mkString(", ")})")
    s
  }

  def unregister(bucket: String): Unit = registry.remove(bucket)
}
