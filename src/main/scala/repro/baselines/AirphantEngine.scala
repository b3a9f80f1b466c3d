package repro.baselines

import repro.cloudstore.{CloudStorage, FetchLedger}
import repro.core.{Builder, IoUConfig, Postings, Searcher, SearchResult}

/** AIRPHANT itself, behind the common engine interface.
  *
  * The naïve hash table baseline is this same engine under another label:
  * it is "equivalent to IoU Sketch with the only exception that it has a
  * single layer L=1. Other relevant configurations such as the total number
  * of bins and common word bins are identical" (§V-A0b), so it is built
  * through the same Builder with `layersOverride = 1`.
  */
final class AirphantEngine(
    store: CloudStorage,
    val built: Builder.BuiltSketch,
    config: IoUConfig,
    override val name: String = "Airphant (IoU Sketch)",
) extends SearchEngine {

  /** The underlying Searcher (initializes: one header fetch). */
  val searcher = new Searcher(store, built.headerBlob)

  override def lookup(word: String, ledger: FetchLedger): Postings =
    searcher.lookup(word, ledger)

  override def search(word: String, topK: Option[Int]): SearchResult =
    searcher.search(word, topK, config)

  override def indexBytes: Long = built.indexBytes
}
