package perfbench

import java.util.concurrent.ConcurrentLinkedQueue

import org.apache.spark.TaskContext

import repro.cloudstore.{CloudStorage, FetchLedger, FetchStats, RangeReq}

/** One call into the store, seen from outside it.
  *
  * @param op       operation id in flight when the call was made
  * @param kind     get | range | batch | kofn
  * @param blobs    header | superposts | docs (by blob name)
  * @param task     Spark task attempt id, or -1 for a driver/client thread
  * @param reqs     ranges requested
  * @param cost     the ledger's change across the call (virtual time, bytes, steps)
  * @param payload  returned bytes, kept only while capturing
  */
final case class StoreCall(op: Long, kind: String, blobs: String, task: Long, reqs: Int,
                           cost: FetchStats, startNs: Long, endNs: Long,
                           payload: Seq[Array[Byte]]) {
  def wallNs: Long = endNs - startNs
  def isBatch: Boolean = kind == "batch" || kind == "kofn"
}

/** A [[CloudStorage]] decorator registered in place of the bucket's store,
  * so the Builder, the Searcher and the DataSource all call through it.
  * While `recording` it logs every read as a [[StoreCall]]; otherwise it
  * only delegates. Writes and cost-free reads are never logged.
  */
final class TracingStore(inner: CloudStorage) extends CloudStorage {

  /** Id of the operation in flight; the benchmark runs one client. */
  @volatile var op: Long = 0L
  @volatile var recording: Boolean = false
  @volatile var capturing: Boolean = false

  private val calls = new ConcurrentLinkedQueue[StoreCall]()

  /** Calls logged since the last drain, in completion order. */
  def drain(): Vector[StoreCall] = {
    val out = Vector.newBuilder[StoreCall]
    var c = calls.poll()
    while (c != null) { out += c; c = calls.poll() }
    out.result()
  }

  override def put(name: String, bytes: Array[Byte]): Unit = inner.put(name, bytes)
  override def size(name: String): Long = inner.size(name)
  override def list(): Seq[String] = inner.list()
  override def totalBytes: Long = inner.totalBytes
  override def getNoCost(name: String): Array[Byte] = inner.getNoCost(name)

  override def get(name: String, ledger: FetchLedger): Array[Byte] =
    logged("get", name, 1, ledger)(Seq(inner.get(name, ledger))).head

  override def getRange(req: RangeReq, ledger: FetchLedger): Array[Byte] =
    logged("range", req.blob, 1, ledger)(Seq(inner.getRange(req, ledger))).head

  override def getRangesParallel(reqs: Seq[RangeReq], ledger: FetchLedger): Seq[Array[Byte]] =
    if (reqs.isEmpty) inner.getRangesParallel(reqs, ledger)
    else logged("batch", reqs.head.blob, reqs.size, ledger)(inner.getRangesParallel(reqs, ledger))

  override def getRangesKofN(reqs: Seq[RangeReq], k: Int,
                             ledger: FetchLedger): Seq[(Int, Array[Byte])] = {
    var out: Seq[(Int, Array[Byte])] = Nil
    logged("kofn", reqs.head.blob, reqs.size, ledger) {
      out = inner.getRangesKofN(reqs, k, ledger); out.map(_._2)
    }
    out
  }

  private def logged(kind: String, blob: String, reqs: Int, ledger: FetchLedger)(
      body: => Seq[Array[Byte]]): Seq[Array[Byte]] = {
    if (!recording) return body
    val opId = op
    val before = ledger.stats
    val t0 = System.nanoTime()
    val out = body
    val t1 = System.nanoTime()
    val after = ledger.stats
    val cost = FetchStats(after.roundTripSteps - before.roundTripSteps,
                          after.waitMs - before.waitMs, after.downloadMs - before.downloadMs,
                          after.bytes - before.bytes)
    val tc = TaskContext.get()
    calls.add(StoreCall(opId, kind, TracingStore.blobClass(blob),
                        if (tc == null) -1L else tc.taskAttemptId(), reqs, cost, t0, t1,
                        if (capturing) out else Nil))
    out
  }
}

object TracingStore {
  def blobClass(blob: String): String =
    if (blob.endsWith("/header")) "header"
    else if (blob.contains("/superposts-")) "superposts"
    else "docs"
}
