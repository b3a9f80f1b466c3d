package repro.cloudstore

import org.scalatest.funsuite.AnyFunSuite
import org.scalactic.Tolerance._
import org.scalacheck.Gen

import repro.GenChecks

class NetworkModelSpec extends AnyFunSuite with GenChecks {

  private val m = NetworkModel()

  /** Cost of one request of `bytes` bytes: a batch of one range. */
  private def one(model: NetworkModel, bytes: Int): FetchStats =
    model.batch(Vector(RangeReq("blob", 0L, bytes)), 1)._1

  test("single request pays base latency plus bandwidth time") {
    val c = one(m, 0)
    assert(c.waitMs == 50.0)
    assert(c.downloadMs == 0.0)
  }

  test("affine shape: latency flat for small payloads, linear beyond (Fig 2)") {
    val small = one(m, 10_000)   // 10 KB
    val twoMb = one(m, 2_000_000)
    val tenMb = one(m, 10_000_000)
    assert(small.totalMs < 51.0)
    assert(twoMb.totalMs === 100.0 +- 1.0) // 50 wait + 50 download at 40 MB/s
    assert(tenMb.downloadMs === 5.0 * twoMb.downloadMs +- 1e-6)
  }

  test("download time scales linearly with bytes") {
    forAllG(Gen.choose(1, 100_000_000)) { bytes =>
      val c = one(m, bytes)
      assert(c.downloadMs === bytes / (40e6 / 1000.0) +- 1e-6)
    }
  }

  test("cost is non-negative and additive") {
    val a = FetchStats(1, 1.0, 2.0, 3L); val b = FetchStats(1, 4.0, 5.0, 6L)
    assert((a + b) == FetchStats(2, 5.0, 7.0, 9L))
    assert(a.totalMs == 3.0)
  }

  test("regions multiply base latency: London 3x, Singapore 7.5x") {
    val london = one(m.copy(region = Region.London), 0)
    val sing = one(m.copy(region = Region.Singapore), 0)
    assert(london.waitMs === 150.0 +- 1e-9)
    assert(sing.waitMs === 375.0 +- 1e-9)
  }

  test("regions shave bandwidth") {
    val iowa = one(m, 1_000_000)
    val sing = one(m.copy(region = Region.Singapore), 1_000_000)
    assert(sing.downloadMs > iowa.downloadMs)
  }

  /** `n` ranges of `bytes` each, keyed by their blob names `<prefix>1..n`. */
  private def ranges(n: Int, bytes: Int, prefix: String = "k"): IndexedSeq[RangeReq] =
    (1 to n).map(i => RangeReq(s"$prefix$i", 0L, bytes))

  /** Cost of a plain batch: the caller needs every range. */
  private def all(model: NetworkModel, reqs: IndexedSeq[RangeReq]): FetchStats = model.batch(reqs, reqs.size)._1

  test("a parallel batch within one wave pays the base latency once") {
    val reqs = ranges(16, 1000)
    val batch = all(m, reqs)
    assert(batch.waitMs === 50.0 +- 1e-9)
    val sequential = reqs.map(r => all(m, Vector(r))).reduce(_ + _)
    assert(sequential.waitMs === 800.0 +- 1e-9)
    assert(batch.totalMs < sequential.totalMs / 10)
  }

  test("batch waves: n requests over 32 threads pay ceil(n/32) base latencies") {
    val n = 100
    val batch = all(m, ranges(n, 10))
    val waves = math.ceil(n / 32.0)
    // total elapsed includes every wave's latency...
    assert(batch.totalMs === 50.0 * waves +- 1.0)
    // ...but only the first wave is classified as wait (tcpdump rule):
    assert(batch.waitMs === 50.0 +- 1e-9)
    assert(batch.downloadMs >= 50.0 * (waves - 1))
  }

  test("batch download is bounded below by aggregate bandwidth contention") {
    // 32 requests of 1 MB: aggregate bound = 32MB / 160MB/s = 200ms,
    // single-stream bound = 1MB / 40MB/s = 25ms.
    val batch = all(m, ranges(32, 1_000_000))
    assert(batch.downloadMs === 200.0 +- 1.0)
  }

  test("batch download falls back to slowest stream when not contended") {
    val batch = all(m, Vector(RangeReq("a", 0L, 4_000_000), RangeReq("b", 0L, 10)))
    // slowest stream: 4MB/40MBps = 100ms > contended 4MB/160MBps = 25ms
    assert(batch.downloadMs === 100.0 +- 1.0)
  }

  test("empty batch costs nothing") {
    assert(m.batch(Vector.empty, 0) == ((FetchStats.zero, IndexedSeq.empty)))
  }

  test("batch bytes equal the sum of request bytes") {
    forAllG(Gen.listOfN(10, Gen.choose(0, 10_000))) { sizes =>
      val c = all(m, sizes.toIndexedSeq.zipWithIndex.map { case (s, i) => RangeReq(s"k$i", 0L, s) })
      assert(c.bytes == sizes.map(_.toLong).sum)
    }
  }

  test("k-of-n wait is the k-th smallest, at most the full batch wait") {
    val tail = m.copy(tailProbability = 0.3, tailMultiplier = 10.0)
    val reqs = ranges(8, 100, "key")
    val full = all(tail, reqs)
    val kofn = tail.batch(reqs, 5)._1
    assert(kofn.waitMs <= full.waitMs)
    assert(kofn.bytes <= full.bytes)
  }

  test("k-of-n with k = n equals the single-wave batch wait") {
    val reqs = ranges(4, 100, "key")
    assert(m.batch(reqs, 4)._1.waitMs === all(m, reqs).waitMs +- 1e-9)
  }

  test("k-of-n rejects invalid k") {
    intercept[IllegalArgumentException](m.batch(ranges(1, 1, "a"), 2))
    intercept[IllegalArgumentException](m.batch(ranges(1, 1, "a"), 0))
  }

  test("replication shields against the long tail (paper §IV-G)") {
    // With stragglers, waiting for 2-of-4 replicated layers beats
    // waiting for 2-of-2 in expectation over request keys.
    val tail = m.copy(tailProbability = 0.2, tailMultiplier = 20.0)
    val trials = (0 until 200).map { t =>
      val four = ranges(4, 100, s"t$t-r")
      val two = four.take(2)
      (tail.batch(four, 2)._1.waitMs, all(tail, two).waitMs)
    }
    val meanRepl = trials.map(_._1).sum / trials.size
    val meanPlain = trials.map(_._2).sum / trials.size
    assert(meanRepl < meanPlain)
  }

  // Costs computed by the separate `batch` and `batchKofN` these replace,
  // pinned exactly: one pricing function must not move any ledger.
  test("pinned prices: 100 ranges at tail 0, 40 ranges at tail 0.3, 4-of-5 at tail 0.3") {
    val plain = (0 until 100).map(i => RangeReq(s"ix/superposts-${i % 3}", i * 1000L, 500 + 37 * i))
    assert(all(m, plain) == FetchStats(1, 50.0, 151.4571875, 233150L))
    val tail = m.copy(tailProbability = 0.3)
    val docs = (0 until 40).map(i => RangeReq("corpus/docs-1", i * 4096L, 100 + (i * 7919) % 3000))
    assert(all(tail, docs) == FetchStats(1, 1000.0, 50.398875, 63820L))
    // Layer 0 straggles, so the 4 winners are layers 1-4.
    val layers = (0 until 5).map(l => RangeReq(s"ix/superposts-$l", 800 + l * 64L, 200 + 50 * l))
    assert(tail.batch(layers, 4) == ((FetchStats(1, 50.0, 0.01, 1300L), Seq(1, 2, 3, 4))))
  }

  test("jitter is deterministic per request key") {
    val tail = m.copy(tailProbability = 0.5)
    forAllG(Gen.alphaNumStr.suchThat(_.nonEmpty)) { key =>
      assert(tail.waitMs(key) == tail.waitMs(key))
    }
  }

  test("tail probability 0 means no jitter at all") {
    forAllG(Gen.alphaNumStr) { key => assert(m.waitMs(key) == 50.0) }
  }

  test("straggler fraction approximates tailProbability") {
    val tail = m.copy(tailProbability = 0.25)
    val n = 2000
    val frac = (1 to n).count(i => tail.waitMs(s"key-$i") > 50.0).toDouble / n
    assert(frac === 0.25 +- 0.05)
  }

  test("invalid model parameters are rejected") {
    intercept[IllegalArgumentException](NetworkModel(baseLatencyMs = -1))
    intercept[IllegalArgumentException](NetworkModel(streamBandwidthBpms = 0))
    intercept[IllegalArgumentException](NetworkModel(concurrency = 0))
  }
}
