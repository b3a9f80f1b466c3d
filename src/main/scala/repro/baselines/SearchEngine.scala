package repro.baselines

import repro.cloudstore.FetchLedger
import repro.core.{Postings, SearchResult}

/** Common interface for all benchmarked engines (§V-A0b): AIRPHANT, the
  * Lucene-like skip list, the SQLite-like B-tree, the naïve hash table,
  * and the Elasticsearch-like engine. All share the same document
  * retrieval + exact-filter routine; they differ only in how the term
  * index resolves a keyword to a postings list — which is exactly the
  * paper's experimental variable.
  */
trait SearchEngine {
  def name: String

  /** Term-index lookup only (paper's Fig. 14 observable): resolve the
    * candidate postings list for `word`, accounting network cost into
    * `ledger`.
    */
  def lookup(word: String, ledger: FetchLedger): Postings

  /** End-to-end search: lookup, fetch documents, exact-filter. */
  def search(word: String, topK: Option[Int] = None): SearchResult

  /** Total bytes of this engine's persisted index structures. */
  def indexBytes: Long
}
