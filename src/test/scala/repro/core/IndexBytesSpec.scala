package repro.core

import java.io.ByteArrayOutputStream
import java.util.zip.CRC32

import scala.collection.mutable.ArrayBuffer
import scala.concurrent.duration._

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.{MapPartitionsExec, QueryExecution}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.concurrent.Eventually._

import repro.SparkSpec
import repro.baselines.ExactPostings
import repro.cloudstore.{CloudStorage, LocalCloudStorage, NetworkModel}
import repro.corpus.{CorpusGen, CorpusWriter}
import repro.exp.Engines

/** What an index build persists, and how many shuffles it takes to write it.
  * The corpus spans 8 blobs, and 1 KiB blocks make the superposts span many
  * blocks, so grouping, block placement and the order inside blocks all show
  * in the bytes.
  */
class IndexBytesSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private val bucket = "ibs"
  private val small = Engines.benchConfig.copy(blockTargetBytes = 1024)

  private lazy val store: LocalCloudStorage = {
    val s = new LocalCloudStorage(NetworkModel())
    CloudStorage.register(bucket, s)
    s
  }

  private lazy val docs: DataFrame = {
    store // force registration
    CorpusWriter.write(spark, CorpusGen.unif(spark, 4000, 800, 6, seed = 21), bucket, "corpus",
                       numBlobs = 8)
  }

  private def crc(bytes: Array[Byte]): Long = { val c = new CRC32; c.update(bytes); c.getValue }

  /** One CRC32 over the CRC32s of `blobs`, in order: pins every blob's bytes. */
  private def crcOfBlobs(blobs: Seq[String]): Long =
    crc(blobs.map(b => crc(store.getNoCost(b))).mkString(",").getBytes("UTF-8"))

  /** A sketch build as (header CRC32, block count, CRC32 of its blocks). */
  private def sketchBytes(prefix: String, config: IoUConfig): (Long, Int, Long) = {
    val built = Builder.build(spark, docs, bucket, prefix, config)
    val blocks = Mht.deserialize(store.getNoCost(built.headerBlob)).blockBlobs.toSeq
    (crc(store.getNoCost(built.headerBlob)), blocks.size, crcOfBlobs(blocks))
  }

  test("an Airphant build compacts in one shuffle over one scan of the corpus") {
    docs.count()
    val plans = ArrayBuffer.empty[QueryExecution]
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        plans.synchronized { plans += qe }
      override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      Builder.build(spark, docs, bucket, "plan", small)
      val compaction = eventually(timeout(30.seconds)) {
        val found = plans.synchronized(plans.toList)
          .filter(qe => find(qe.executedPlan)(_.isInstanceOf[MapPartitionsExec]).isDefined)
        assert(found.size == 1)
        found.head.executedPlan
      }
      assert(collect(compaction) { case e: ShuffleExchangeLike => e }.size == 1, compaction)
      assert(collect(compaction) { case s: InMemoryTableScanExec => s }.size == 1, compaction)
    } finally spark.listenerManager.unregister(listener)
  }

  test("every index blob and header is pinned: three sketch configs and the exact postings") {
    val exact = ExactPostings.build(spark, docs, bucket, "pin-exact")
    val table = new ByteArrayOutputStream()
    PostingsCodec.writeEntries(table, exact.words.toSeq.map(w => w -> exact.pointers(w)))
    assert(exact.blockBlobs.toSeq == Seq("pin-exact/postings-0"))
    // (header or pointer-table CRC32, block count, CRC32 of the blocks)
    val got = Seq(
      "default"     -> sketchBytes("pin-default", small),
      "extraLayers" -> sketchBytes("pin-extra", small.copy(extraLayers = 1)),
      "singleLayer" -> sketchBytes("pin-single", small.copy(layersOverride = Some(1))),
      "exact"       -> ((crc(table.toByteArray), exact.blockBlobs.length,
                         crcOfBlobs(exact.blockBlobs.toSeq))),
    )
    val want = Seq(
      "default"     -> ((1048799193L, 255, 2126576883L)),
      "extraLayers" -> ((1269485558L, 256, 2266544236L)),
      "singleLayer" -> ((2556173075L, 162, 3229691841L)),
      "exact"       -> ((1019016279L, 1, 3834100047L)),
    )
    assert(got == want)
  }

  test("indexBytes counts the header and the blocks it names, not stale blocks of a rebuild") {
    val many = Builder.build(spark, docs, bucket, "rebuilt", small)
    val manyBlocks = Mht.deserialize(store.getNoCost(many.headerBlob)).blockBlobs
    val again = Builder.build(spark, docs, bucket, "rebuilt", Engines.benchConfig)
    val blocks = Mht.deserialize(store.getNoCost(again.headerBlob)).blockBlobs
    assert(blocks.length < manyBlocks.length)
    assert(again.indexBytes == blocks.map(store.size).sum + store.size(again.headerBlob))
    assert(many.indexBytes > again.indexBytes)
  }
}
