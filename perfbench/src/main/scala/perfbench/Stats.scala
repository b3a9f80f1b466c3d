package perfbench

/** Order statistics behind every timing the benchmark reports. */
object Stats {

  /** 1-based nearest rank of percentile `p` (0 < p <= 1) among `n` samples. */
  def rank(n: Int, p: Double): Int =
    math.max(1, math.min(n, math.ceil(p * n - 1e-9).toInt))

  /** Nearest-rank percentile of an ascending array. */
  def atRank(sorted: Array[Double], p: Double): Double = {
    require(sorted.nonEmpty, "percentile of an empty sample")
    sorted(rank(sorted.length, p) - 1)
  }

  def percentile(xs: Array[Double], p: Double): Double = atRank(xs.sorted, p)

  /** Mean of the samples at or beyond percentile `p`. Unlike the
    * percentile itself it still moves when a few more slow operations join
    * the tail, which matters for a deterministic (virtual) cost whose
    * largest values repeat across query lists.
    */
  def tailMean(xs: Array[Double], p: Double): Double = {
    val s = xs.sorted
    val from = rank(s.length, p) - 1
    mean(s.slice(from, s.length).toSeq)
  }

  /** Percentiles a tail may be reported at, highest first. */
  val TailLadder: Seq[Double] = Seq(0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5)

  /** The highest ladder percentile that leaves at least `beyond` of `n`
    * samples above its rank, so a tail is never one or two outliers.
    */
  def tailPercentile(n: Int, beyond: Int = 10): Option[Double] =
    TailLadder.find(p => n - rank(n, p) >= beyond)

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** One measurement window: per-operation latencies in arrival order and
    * the wall time the window took.
    */
  final case class Window(latencies: Array[Double], wallNs: Long) {
    def throughput: Double = latencies.length / (wallNs / 1e9)
  }

  /** The window-median reduction: a statistic computed per window, then
    * the median across windows, so a burst that hits a few windows does
    * not move the result.
    */
  def windowMedian[W](windows: Seq[W])(stat: W => Double): Double =
    median(windows.map(stat))
}
