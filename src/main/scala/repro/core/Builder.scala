package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.cloudstore.CloudStorage
import repro.corpus.CorpusProfile

/** AIRPHANT Builder (§III-C0a): creates one IoU Sketch per corpus and
  * persists it on cloud storage.
  *
  * The pipeline is the paper's, expressed in DataFrames: parse documents
  * into words → profile (single pass, [[CorpusProfile]]) → optimise the
  * layer count (Algorithm 1) → key each (word, document) posting by the
  * (layer, bin)s of its word → compact them into superposts packed in block
  * blobs, in one shuffle ([[BlockCompactor]], §IV-C) → persist the MHT header.
  */
object Builder {

  /** Handle to a persisted sketch. */
  final case class BuiltSketch(
      headerBlob: String,
      layers: Int,
      optimizedLayers: Int,
      binsPerLayer: Int,
      commonWordCount: Int,
      profile: CorpusProfile,
      indexBytes: Long,
  )

  /** Build and persist an IoU Sketch.
    *
    * @param docs       corpus frame: doc_id, blob, offset, length, text
    *                   (as produced by [[repro.corpus.CorpusWriter.write]])
    * @param bucket     registered [[CloudStorage]] bucket holding the corpus
    * @param prefix     blob-name prefix for all index blobs
    * @param profileOpt reuse a precomputed profile (skips the profiling pass)
    */
  def build(spark: SparkSession, docs: DataFrame, bucket: String, prefix: String,
            config: IoUConfig, profileOpt: Option[CorpusProfile] = None): BuiltSketch = {
    import spark.implicits._

    val profile = profileOpt.getOrElse(
      CorpusProfile.profile(spark, docs, maxTopWords = math.max(config.commonBins, 100)))
    val lStar = config.layersOverride.getOrElse {
      LayerOptimizer.minimizeLayers(config.iouBins, config.f0, IoUMath.hist(profile)) match {
        case Right(l) => l
        case Left(rej) => throw new IllegalArgumentException(
          s"IoU Sketch optimization rejected (B=${config.iouBins}, F0=${config.f0}): ${rej.message}")
      }
    }
    val totalLayers = lStar + config.extraLayers
    val binsPerLayer = math.max(1, config.iouBins / math.max(1, lStar))
    val seeds = config.seeds(totalLayers)

    // Common words (§IV-E): most document-frequent words get exact postings.
    val commonWords: Array[String] =
      profile.topWords.take(math.min(config.commonBins, profile.topWords.size)).map(_._1).toArray
    val bcCommonIdx = spark.sparkContext.broadcast(commonWords.zipWithIndex.toMap)
    // The (layer, bin) keys a word is posted under: a common word rides in
    // the same compaction with layer = -1 and bin = its index; any other
    // word is posted to its bin in every layer.
    val keysOf = udf((word: String) => bcCommonIdx.value.get(word) match {
      case Some(i) => Seq((-1, i))
      case None => Seq.tabulate(totalLayers)(l => (l, Hashing.bin(word, seeds(l), binsPerLayer)))
    })

    val (docBlobs, words) = BlockCompactor.tokenize(spark, docs)
    val postings = words.select(inline(keysOf($"word")).as(Seq("layer", "bin")),
                                $"blobId", $"offset", $"length")

    // Size blocks so each blob lands near the compaction target.
    val approxBytes = (profile.sumDistinct * totalLayers.toLong + profile.nDocs) * 6L
    val numBlocks = math.max(1, math.min(256,
      math.ceil(approxBytes.toDouble / config.blockTargetBytes).toInt))

    val (blockBlobs, ptrs) = BlockCompactor.compact(postings, Seq("layer", "bin"), numBlocks,
      bucket, s"$prefix/superposts")(r => (r.getInt(0), r.getInt(1)))

    val binPtrArr = Array.fill(totalLayers)(new Array[BinPointer](binsPerLayer))
    val commonMap = Map.newBuilder[String, BinPointer]
    ptrs.foreach { case ((layer, bin), p) =>
      if (layer >= 0) binPtrArr(layer)(bin) = p
      else commonMap += commonWords(bin) -> p
    }

    val mht = new Mht(totalLayers, binsPerLayer, seeds, binPtrArr,
                      commonMap.result(), blockBlobs, docBlobs)
    val store = CloudStorage.named(bucket)
    val headerBlob = s"$prefix/header"
    store.put(headerBlob, mht.serialize())

    val indexBytes = (blockBlobs :+ headerBlob).map(store.size).sum
    BuiltSketch(headerBlob, totalLayers, lStar, binsPerLayer,
                commonWords.length, profile, indexBytes)
  }
}
