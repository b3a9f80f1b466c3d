package repro.core

import repro.corpus.CorpusProfile

/** The paper's accuracy analysis (§IV-A), implemented verbatim.
  *
  * All formulas are parameterised by the total bin budget B, the number of
  * layers L, and the per-document distinct-word counts |W_i| summarised as
  * a histogram of rows (w_i, count, c_i) where c_i = Σ_{w ∉ W_i} p_w is
  * the probability a query word is irrelevant to documents with that
  * distinct-word count (uniform prior by default, §IV-B).
  */
object IoUMath {
  private val Ln2 = math.log(2.0)

  /** Histogram row: |W_i| value, number of such documents, coefficient c_i. */
  final case class HistRow(wi: Int, count: Long, ci: Double) {
    require(wi >= 0 && count >= 0 && ci >= 0 && ci <= 1, s"bad hist row: $this")
  }

  /** A corpus profile's histogram under the uniform query-word prior. */
  def hist(profile: CorpusProfile): Seq[HistRow] =
    profile.histWithCi.map { case (wi, cnt, ci) => HistRow(wi, cnt, ci) }

  /** Exact per-document false-positive probability, Eq. (1) left side:
    * q_i(L) = [1 − (1 − 1/(B/L))^{|W_i|}]^L.
    */
  def qExact(L: Int, B: Double, wi: Int): Double = {
    require(L >= 1 && B >= L, s"need 1 <= L=$L <= B=$B")
    val binsPerLayer = B / L
    math.pow(1.0 - math.pow(1.0 - 1.0 / binsPerLayer, wi.toDouble), L.toDouble)
  }

  /** Approximate q̂_i(L) = [1 − e^{−|W_i|L/B}]^L, Eq. (1) right side.
    * Defined for continuous L (the analysis extends L to the reals).
    */
  def qHat(L: Double, B: Double, wi: Int): Double = {
    require(L >= 1 && B >= L)
    math.pow(1.0 - math.exp(-wi.toDouble * L / B), L)
  }

  /** Expected number of false positives per query, Eq. (2), exact q_i. */
  def fExact(L: Int, B: Double, hist: Seq[HistRow]): Double =
    hist.iterator.map(r => r.count.toDouble * r.ci * qExact(L, B, r.wi)).sum

  /** Expected number of false positives per query, Eq. (2), with q̂. */
  def fHat(L: Double, B: Double, hist: Seq[HistRow]): Double =
    hist.iterator.map(r => r.count.toDouble * r.ci * qHat(L, B, r.wi)).sum

  /** Per-document minimiser of q̂_i (Lemma 1): L_i* = (B/|W_i|) ln 2. */
  def liStar(B: Double, wi: Int): Double = {
    require(wi >= 1)
    B / wi.toDouble * Ln2
  }

  /** Lemma 1's cheap feasibility lower bound: F̂(L) ≥ Σ_i c_i 2^{−L_i*}
    * (and F > F̂, so this also lower-bounds the exact objective).
    */
  def lowerBound(B: Double, hist: Seq[HistRow]): Double =
    hist.iterator.map { r =>
      if (r.wi == 0) 0.0
      else r.count.toDouble * r.ci * math.pow(2.0, -liStar(B, r.wi))
    }.sum

  /** L_min = min_i L_i* — below it F̂ is strictly decreasing (Lemma 2). */
  def lMin(B: Double, hist: Seq[HistRow]): Double = {
    val maxWi = hist.iterator.map(_.wi).filter(_ >= 1).maxOption.getOrElse(1)
    liStar(B, maxWi)
  }

  /** L_max = max_i L_i* — above it F̂ is strictly increasing (Lemma 3). */
  def lMax(B: Double, hist: Seq[HistRow]): Double = {
    val minWi = hist.iterator.map(_.wi).filter(_ >= 1).minOption.getOrElse(1)
    liStar(B, minWi)
  }

  /** Hoeffding deviation bound (Eq. 5): with probability ≥ 1 − δ the
    * observed false-positive count deviates from F(L) by at most
    * ε = sqrt(σ_X² ln(1/δ) / 2).
    */
  def hoeffdingEps(sigmaX: Double, delta: Double): Double = {
    require(delta > 0 && delta < 1)
    math.sqrt(0.5 * sigmaX * sigmaX * math.log(1.0 / delta))
  }

  /** Top-K sample size R_K (Eq. 6): the number of postings to sample from a
    * final postings list of size R containing F0 expected false positives so
    * that, with probability ≥ 1 − δ, at least K sampled postings are
    * relevant. If K ≥ R − F0 all R postings must be fetched.
    */
  def topKSampleSize(k: Int, r: Int, f0: Double, delta: Double): Int = {
    require(k >= 1 && r >= 0 && f0 >= 0 && delta > 0 && delta < 1)
    if (r == 0) return 0
    if (k.toDouble >= r.toDouble - f0) return r
    val p = 1.0 - f0 / r
    val a = 2.0 * p * k + 0.5 * math.log(1.0 / delta)
    val disc = a * a - 4.0 * p * p * k.toDouble * k
    val rk = math.ceil((a + math.sqrt(math.max(0.0, disc))) / (2.0 * p * p)).toInt
    math.min(r, rk)
  }
}
