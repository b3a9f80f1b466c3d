package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.cloudstore.{CloudStorage, LocalCloudStorage, NetworkModel}
import repro.corpus.{CorpusGen, CorpusProfile, CorpusWriter, LogCorpusGen, Parsers}

/** A corpus materialised on (simulated) cloud storage, ready to index.
  *
  * @param docs    frame with doc_id, blob, offset, length, text
  * @param vocab   realised vocabulary (sorted) — query words are sampled
  *                uniformly from it, the paper's default prior (§IV-B)
  */
final case class BuiltCorpus(
    name: String,
    bucket: String,
    store: LocalCloudStorage,
    docs: DataFrame,
    profile: CorpusProfile,
    vocab: Array[String],
) {
  /** Release cached frames and the bucket registration. */
  def close(): Unit = {
    docs.unpersist()
    CloudStorage.unregister(bucket)
  }
}

/** Constructs benchmark corpora on fresh simulated buckets. */
object Corpora {

  /** Materialise a (doc_id, text) frame as a corpus: write blobs, profile,
    * collect the vocabulary.
    */
  def materialize(spark: SparkSession, name: String, bucket: String, raw: DataFrame): BuiltCorpus = {
    import spark.implicits._
    val store = new LocalCloudStorage(NetworkModel())
    CloudStorage.register(bucket, store)
    val docs = CorpusWriter.write(spark, raw, bucket, name)
    val profile = CorpusProfile.profile(spark, docs)
    val vocab = docs.select(explode(Parsers.tokens($"text"))).distinct().as[String].collect().sorted
    BuiltCorpus(name, bucket, store, docs, profile, vocab)
  }

  /** One of the four shape-matched "real" corpora (cranfield/hdfs/windows/spark). */
  def log(spark: SparkSession, specName: String, bucket: String): BuiltCorpus = {
    val spec = LogCorpusGen.byName(specName)
    materialize(spark, spec.name, bucket, LogCorpusGen.generate(spark, spec))
  }

  /** Synthetic family member: kind in {diag, unif, zipf} (§V-A0a). */
  def synthetic(spark: SparkSession, kind: String, nDocs: Long, nVocab: Int,
                wordsPerDoc: Int, bucket: String): BuiltCorpus = {
    val raw = kind match {
      case "diag" => CorpusGen.diag(spark, nDocs)
      case "unif" => CorpusGen.unif(spark, nDocs, nVocab, wordsPerDoc)
      case "zipf" => CorpusGen.zipf(spark, nDocs, nVocab, wordsPerDoc)
      case other  => sys.error(s"unknown synthetic corpus kind: $other")
    }
    materialize(spark, s"$kind-$nDocs", bucket, raw)
  }
}
