package repro.core

/** User-facing IoU Sketch configuration (§III-C0b).
  *
  * The paper's defaults (§V-A0c): B = 1e5 bins and F0 = 1 expected false
  * positive per query. The values the paper fixes rather than exposes are
  * constants: [[IoUConfig.CommonWordFraction]], the hash seed family, and
  * the top-K δ ([[DocFetcher.TopKDelta]]).
  *
  * @param bins               B — TOTAL bin budget, common-word bins included
  * @param f0                 accuracy budget: expected false positives per query
  * @param layersOverride     manually fix L, skipping profiling-driven optimization
  * @param extraLayers        L+ replication: build this many layers beyond L* and
  *                           wait for only the fastest L* at query time (§IV-G)
  * @param blockTargetBytes   target size of each superpost block blob (§IV-C)
  */
final case class IoUConfig(
    bins: Int = 100000,
    f0: Double = 1.0,
    layersOverride: Option[Int] = None,
    extraLayers: Int = 0,
    blockTargetBytes: Int = 1 << 20,
) {
  require(bins >= 2 && f0 >= 0)
  require(extraLayers >= 0 && blockTargetBytes >= 1024)
  layersOverride.foreach(l => require(l >= 1, "layersOverride must be >= 1"))

  /** Bins reserved for the most common words (§IV-E). */
  def commonBins: Int = (bins * IoUConfig.CommonWordFraction).toInt

  /** Bins available to the IoU Sketch proper. */
  def iouBins: Int = bins - commonBins

  /** The deterministic per-layer hash seed sequence. */
  def seeds(nLayers: Int): Array[Int] = Array.tabulate(nLayers)(i => IoUConfig.SeedBase + i * 7919)
}

object IoUConfig {
  /** Share of B set aside for exact common-word postings: the paper's 1 %
    * (§IV-E, §V-A0c).
    */
  val CommonWordFraction: Double = 0.01

  /** Base of the per-layer seed sequence that stands in for the paper's
    * pairwise independent hash family (§IV-A). Persisted headers record
    * the seeds, so a change here changes every index byte.
    */
  private val SeedBase: Int = 1234
}
