package repro.cloudstore

import scala.util.hashing.MurmurHash3

/** A geographic region hosting the compute node, relative to the storage
  * bucket. The paper (§V-B0b) places VMs in Iowa (same region as the
  * bucket), London, and Singapore; further regions multiply the first-byte
  * latency and shave effective per-stream bandwidth.
  *
  * @param name               display name
  * @param latencyMultiplier  factor on the base (first-byte) latency
  * @param bandwidthFactor    factor (<= 1) on per-stream and aggregate bandwidth
  */
final case class Region(name: String, latencyMultiplier: Double, bandwidthFactor: Double)

object Region {
  /** Compute co-located with the bucket (paper: us-central1-c "Iowa"). */
  val Iowa: Region = Region("us-central1 (Iowa)", 1.0, 1.0)
  /** Paper: europe-west2-c; observed ~2.4–3.3x slowdown for parallel readers. */
  val London: Region = Region("europe-west2 (London)", 3.0, 0.75)
  /** Paper: asia-southeast1-b; observed ~6.5–8.2x slowdown. */
  val Singapore: Region = Region("asia-southeast1 (Singapore)", 7.5, 0.55)

  val all: Seq[Region] = Seq(Iowa, London, Singapore)
}

/** Deterministic affine model of cloud-object-storage retrieval latency,
  * calibrated to the paper's Figure 2: the end-to-end time for a single
  * request is flat (~50 ms) up to ~2 MB and then grows linearly, i.e.
  *
  *   latency(bytes) = baseLatencyMs + bytes / bandwidth.
  *
  * A parallel batch of requests (the IoU Sketch lookup pattern) costs the
  * slowest single stream or the aggregate-bandwidth bound, whichever is
  * larger — the latter reproduces the bandwidth contention the paper
  * observes when the number of layers L grows (§V-D).
  *
  * Long-tail variability (§IV-G) is modelled as deterministic pseudo-random
  * multiplicative jitter on the first-byte latency, seeded per request, so
  * experiments are reproducible yet exhibit stragglers when
  * `tailProbability > 0`.
  *
  * @param baseLatencyMs        first-byte latency within region (Fig. 2: ~50 ms)
  * @param streamBandwidthBpms  per-stream bandwidth in bytes/ms (Fig. 2: ~2MB / 50ms = 40 MB/s)
  * @param aggregateStreams     effective number of saturating parallel streams the
  *                             NIC sustains (32 download threads share a small VM's NIC)
  * @param concurrency          download thread pool size (paper: 32 threads, §V-A0c);
  *                             a batch of n requests runs in ceil(n/concurrency)
  *                             sequential waves, each paying the first-byte latency —
  *                             this is what makes fetching thousands of
  *                             false-positive documents slow (paper's HashTable)
  * @param region               compute region relative to the bucket
  * @param tailProbability      probability a request is a long-tail straggler
  * @param tailMultiplier       straggler first-byte latency multiplier
  * @param jitterSeed           seed for the deterministic jitter stream
  */
final case class NetworkModel(
    baseLatencyMs: Double = 50.0,
    streamBandwidthBpms: Double = 40e6 / 1000.0,
    aggregateStreams: Double = 4.0,
    concurrency: Int = 32,
    region: Region = Region.Iowa,
    tailProbability: Double = 0.0,
    tailMultiplier: Double = 20.0,
    jitterSeed: Int = 42,
) {
  require(baseLatencyMs >= 0 && streamBandwidthBpms > 0 && aggregateStreams >= 1)
  require(concurrency >= 1)

  /** First-byte latency for one request identified by `requestKey`. */
  def waitMs(requestKey: String): Double = {
    val base = baseWaitMs
    if (tailProbability <= 0) base
    else {
      val h = MurmurHash3.stringHash(requestKey, jitterSeed)
      val u = ((h & 0x7fffffff).toDouble + 0.5) / Int.MaxValue.toDouble
      if (u < tailProbability) base * tailMultiplier else base
    }
  }

  private def baseWaitMs: Double = baseLatencyMs * region.latencyMultiplier
  private def streamBpms: Double = streamBandwidthBpms * region.bandwidthFactor
  private def aggregateBpms: Double = streamBpms * aggregateStreams

  /** Cost of a single sequential request of `bytes` bytes: one round trip. */
  def single(requestKey: String, bytes: Long): FetchStats =
    FetchStats(1, waitMs(requestKey), bytes.toDouble / streamBpms, bytes)

  /** Cost of one *batch* of concurrent `requests` issued together, of which
    * the caller waits for the `need` with the smallest first-byte latency.
    * A plain batch needs all of them; IoU Sketch's built-in replication
    * (§IV-G) issues L+ requests and needs any L.
    *
    * The winners drain through the `concurrency`-thread pool in
    * ceil(need/concurrency) waves. Total elapsed time is the per-wave
    * first-byte latencies summed plus the bandwidth term over the winners'
    * bytes (max(slowest single stream, aggregate-bandwidth bound) — many
    * medium requests contend for the NIC like the paper's Fig. 10c).
    *
    * Classification follows the paper's tcpdump rule (§V-B0c): only the
    * FIRST wave's latency is "wait" (no traffic yet); once streams are in
    * flight the aggregate link stays busy, so later waves' latencies are
    * accounted as download time. This is exactly why the paper sees
    * HashTable as download-heavy rather than wait-heavy.
    *
    * Each request's wait is computed once; its key is read only when
    * `tailProbability > 0`, the one case where jitter hashes it.
    *
    * @return the cost (one round trip; none for an empty batch), and the
    *         winners' request indices in completion order (ascending
    *         first-byte latency, ties in request order)
    */
  def batch(requests: IndexedSeq[RangeReq], need: Int): (FetchStats, IndexedSeq[Int]) = {
    val n = requests.size
    require(if (n == 0) need == 0 else need >= 1 && need <= n, s"need 1 <= need=$need <= $n")
    if (n == 0) return (FetchStats.zero, IndexedSeq.empty)
    // At tail 0 every wait is the base latency, so the first `need` win.
    val (winners, waitOf): (IndexedSeq[Int], Int => Double) =
      if (tailProbability <= 0) (0 until need, _ => baseWaitMs)
      else {
        val waitAt = requests.map(r => waitMs(r.key))
        ((0 until n).sortBy(waitAt).take(need), waitAt)
      }
    val waits = new Array[Double](need)
    var totalBytes = 0L
    var longest = 0
    var j = 0
    while (j < need) {
      val i = winners(j)
      waits(j) = waitOf(i)
      totalBytes += requests(i).length
      longest = math.max(longest, requests(i).length)
      j += 1
    }
    // The wave heads, slowest first, are the sorted waits at need-1,
    // need-1-concurrency, ...; the first is the batch's wait.
    java.util.Arrays.sort(waits)
    var laterWaves = 0.0
    j = need - 1 - concurrency
    while (j >= 0) { laterWaves += waits(j); j -= concurrency }
    val slowestStream = longest.toDouble / streamBpms
    val contended = totalBytes.toDouble / aggregateBpms
    (FetchStats(1, waits(need - 1), laterWaves + math.max(slowestStream, contended), totalBytes),
     winners)
  }
}
