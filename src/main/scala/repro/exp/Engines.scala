package repro.exp

import org.apache.spark.sql.SparkSession

import repro.baselines._
import repro.core.{Builder, IoUConfig}

/** The five engines of the paper's evaluation (§V-A0b), built over one
  * corpus. AIRPHANT and HashTable are one engine class over the same
  * Builder (the latter with L = 1 forced); the skip-list, B-tree and Elasticsearch-like engines
  * share one exact-postings substrate; everyone shares the document
  * retrieval routine.
  */
final case class EngineSet(
    airphant: AirphantEngine,
    hashTable: AirphantEngine,
    skipList: SkipListIndex,
    bTree: BTreeIndex,
    elastic: ElasticLike,
) {
  /** Display order used by the paper's figures. */
  def all: Seq[SearchEngine] = Seq(airphant, skipList, elastic, bTree, hashTable)

  /** Fresh-VM condition: drop the engine-side caches. */
  def clearCaches(): Unit = { bTree.clearCache(); skipList.clearCache() }
}

object Engines {

  /** The scaled default configuration (see DESIGN.md §3): B = 5000 plays
    * the role of the paper's B = 1e5 at our corpus scale, with the same
    * F0 = 1, 1% common-word bins and top-K δ = 1e-6 (§V-A0c).
    */
  val benchConfig: IoUConfig = IoUConfig(bins = 5000, f0 = 1.0)

  def build(spark: SparkSession, corpus: BuiltCorpus,
            config: IoUConfig = benchConfig): EngineSet = {
    val profile = Some(corpus.profile)
    val air = Builder.build(spark, corpus.docs, corpus.bucket, "airphant", config, profile)
    val ht = Builder.build(spark, corpus.docs, corpus.bucket, "hashtable",
                           config.copy(layersOverride = Some(1)), profile)
    val exact = ExactPostings.build(spark, corpus.docs, corpus.bucket, "exact")
    val sl = new SkipListIndex(corpus.store, exact, "skiplist")
    val bt = new BTreeIndex(corpus.store, exact, "btree")
    val es = new ElasticLike(corpus.store, sl, "elastic")
    EngineSet(
      new AirphantEngine(corpus.store, air, config),
      new AirphantEngine(corpus.store, ht, config.copy(layersOverride = Some(1)),
                         "HashTable (IoU, L=1)"),
      sl, bt, es)
  }
}
