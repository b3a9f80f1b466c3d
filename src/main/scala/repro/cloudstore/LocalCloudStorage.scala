package repro.cloudstore

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, ExecutorService, Executors, TimeUnit,
  TimeoutException}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import scala.collection.immutable.ArraySeq
import scala.jdk.CollectionConverters._

/** In-process blob store with simulated network cost.
  *
  * Bytes live in a concurrent map (our corpora are ~10–100 MB, well within
  * heap). A parallel batch is read for real by several threads at once: the
  * calling thread and up to `downloadThreads - 1` helpers from a shared
  * fixed pool (the paper uses 32 download threads, §V-A0c) each claim the
  * next unread range from one cursor until none is left. A small batch is
  * thus done by the caller before a helper wakes, and a large one spreads
  * over the pool. Latency is accounted in virtual time by the
  * [[NetworkModel]]. Thread-safe: Spark local-mode tasks may read
  * concurrently through the [[CloudStorage.named]] registry.
  */
final class LocalCloudStorage(initialModel: NetworkModel, downloadThreads: Int = 32)
    extends CloudStorage {

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

  override def get(name: String, ledger: FetchLedger): Array[Byte] = {
    val b = lookup(name)
    ledger.record(model.single(name, b.length.toLong))
    b.clone()
  }

  override def getRange(req: RangeReq, ledger: FetchLedger): Array[Byte] = {
    val out = slice(req)
    ledger.record(model.single(req.key, req.length.toLong))
    out
  }

  override def getRangesParallel(reqs: Seq[RangeReq], ledger: FetchLedger): Seq[Array[Byte]] = {
    if (reqs.isEmpty) return Nil
    val out = fetchConcurrently(reqs)
    ledger.record(model.batch(reqs.map(r => (r.key, r.length.toLong))))
    out
  }

  override def getRangesKofN(reqs: Seq[RangeReq], k: Int, ledger: FetchLedger): Seq[(Int, Array[Byte])] = {
    require(k >= 1 && k <= reqs.size)
    // Deterministic completion order = ascending simulated first-byte latency.
    val order = reqs.zipWithIndex.sortBy { case (r, _) => model.waitMs(r.key) }
    val winners = order.take(k)
    val bytes = fetchConcurrently(winners.map(_._1))
    ledger.record(model.batchKofN(reqs.map(r => (r.key, r.length.toLong)), k))
    winners.map(_._2).zip(bytes)
  }

  override def getNoCost(name: String): Array[Byte] = lookup(name).clone()

  /** Reads the ranges on the calling thread and on up to
    * `downloadThreads - 1` pool helpers, all claiming from one cursor.
    * Results keep request order; the first failed read is rethrown.
    */
  private def fetchConcurrently(reqs: Seq[RangeReq]): Seq[Array[Byte]] = {
    if (reqs.size == 1) return Seq(slice(reqs.head))
    val batch = new LocalCloudStorage.Batch(reqs.toIndexedSeq, slice)
    val helpers = math.min(reqs.size, downloadThreads) - 1
    if (helpers > 0) {
      val pool = LocalCloudStorage.pool(downloadThreads)
      for (_ <- 1 to helpers) pool.execute(batch)
    }
    batch.run()
    batch.await(60, TimeUnit.SECONDS)
  }
}

object LocalCloudStorage {
  // One shared download pool per JVM; 32 threads matches the paper's setup.
  @volatile private var pools = Map.empty[Int, ExecutorService]

  private def pool(n: Int): ExecutorService = synchronized {
    pools.getOrElse(n, {
      val p = Executors.newFixedThreadPool(n, r => {
        val t = new Thread(r, s"cloud-download-$n"); t.setDaemon(true); t
      })
      pools += n -> p
      p
    })
  }

  /** One batch of range reads. Every thread that runs it claims the next
    * unread range until none is left; the latch counts finished ranges,
    * failed ones included, so the waiting caller never hangs on an error.
    */
  private final class Batch(reqs: IndexedSeq[RangeReq], read: RangeReq => Array[Byte])
      extends Runnable {
    private val out = new Array[Array[Byte]](reqs.size)
    private val cursor = new AtomicInteger
    private val done = new CountDownLatch(reqs.size)
    private val failure = new AtomicReference[Throwable]

    override def run(): Unit = {
      var i = cursor.getAndIncrement()
      while (i < out.length) {
        try out(i) = read(reqs(i))
        catch { case t: Throwable => failure.compareAndSet(null, t) }
        done.countDown()
        i = cursor.getAndIncrement()
      }
    }

    def await(timeout: Long, unit: TimeUnit): Seq[Array[Byte]] = {
      if (!done.await(timeout, unit))
        throw new TimeoutException(s"${done.getCount} of ${out.length} ranges unread after $timeout $unit")
      val t = failure.get
      if (t != null) throw t
      ArraySeq.unsafeWrapArray(out)
    }
  }
}
