package repro.cloudstore

/** Mutable per-query ledger of simulated network activity.
  *
  * Engines thread one ledger through a single search; afterwards
  * `stats` summarises it the same way the paper's tcpdump breakdown
  * does (§V-B0c): total latency = wait time + download time, plus the
  * number of *sequential* round-trip steps (a concurrent batch counts
  * as one step — that is the whole point of IoU Sketch).
  */
final class FetchLedger {
  private var total = FetchStats.zero

  /** Record one sequential step (a single request or one parallel batch). */
  def record(c: FetchStats): Unit = total += c

  def stats: FetchStats = total
}

/** Immutable summary of network activity, split the same way the paper's
  * tcpdump analysis splits it (§V-B0c): `waitMs` is time spent blocked
  * before bytes flow (first-byte latency, i.e. the round-trip overhead)
  * and `downloadMs` is time spent actually moving bytes. One request or
  * one concurrent batch is one round-trip step.
  */
final case class FetchStats(roundTripSteps: Int, waitMs: Double, downloadMs: Double, bytes: Long) {
  def totalMs: Double = waitMs + downloadMs
  def +(o: FetchStats): FetchStats =
    FetchStats(roundTripSteps + o.roundTripSteps, waitMs + o.waitMs,
               downloadMs + o.downloadMs, bytes + o.bytes)
}

object FetchStats {
  val zero: FetchStats = FetchStats(0, 0.0, 0.0, 0L)

  /** Mean of a sample of per-query stats. */
  def mean(xs: Seq[FetchStats]): FetchStats = {
    require(xs.nonEmpty, "mean of empty sample")
    val n = xs.size.toDouble
    FetchStats(math.round(xs.map(_.roundTripSteps).sum / n).toInt,
               xs.map(_.waitMs).sum / n, xs.map(_.downloadMs).sum / n,
               math.round(xs.map(_.bytes.toDouble).sum / n))
  }

  /** p-th percentile (0..1) of total latency over a sample. */
  def percentileMs(xs: Seq[FetchStats], p: Double): Double = {
    require(xs.nonEmpty && p >= 0 && p <= 1)
    val sorted = xs.map(_.totalMs).sorted
    sorted(math.min(sorted.size - 1, math.ceil(p * sorted.size).toInt - 1).max(0))
  }
}
