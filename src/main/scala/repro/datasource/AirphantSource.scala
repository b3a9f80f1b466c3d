package repro.datasource

import java.util

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources.{DataSourceRegister, EqualTo, Filter, In}
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.unsafe.types.UTF8String

import repro.cloudstore.{CloudStorage, FetchLedger}
import repro.core.{DocFetcher, Postings, Searcher}
import repro.corpus.{DocRef, Parsers}

import scala.jdk.CollectionConverters._

/** DataSourceV2 over an AIRPHANT-indexed corpus.
  *
  * The table is the corpus's (word, document) relation:
  *   word, doc_id, blob, offset, length, text
  *
  * Keyword predicates (`word = 'kw'`, `word IN (...)`) are pushed into the
  * source: the driver resolves each keyword through the IoU Sketch — one
  * concurrent batch of superpost reads + intersection — and plans one
  * input partition per slice of the candidate postings, so Spark executors
  * issue the document range reads as parallel async scan tasks and drop
  * false positives with the exact filter. Without a pushed keyword the
  * source falls back to a full corpus scan (one partition per corpus
  * blob), which is also how §IV-F's RegEx/N-gram filtering would consume
  * it.
  *
  * Required options: `bucket` (a [[CloudStorage.named]] registration) and
  * `header` (the sketch's header blob). Optional: `keyword` (alternative
  * to a pushed filter), `sliceDocs` (max documents per input partition).
  *
  * Pushed filters are still re-evaluated by Spark above the scan (we
  * return them as residuals), so correctness never depends on the index —
  * the index only prunes I/O, exactly the paper's "inverted index as a
  * filter" usage.
  */
class AirphantSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "airphant"

  override def inferSchema(options: CaseInsensitiveStringMap): StructType = AirphantSource.schema

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table =
    new AirphantTable()
}

object AirphantSource {
  val schema: StructType = StructType(Seq(
    StructField("word", StringType, nullable = false),
    StructField("doc_id", StringType, nullable = false),
    StructField("blob", StringType, nullable = false),
    StructField("offset", LongType, nullable = false),
    StructField("length", IntegerType, nullable = false),
    StructField("text", StringType, nullable = false),
  ))
}

private[datasource] class AirphantTable extends Table with SupportsRead {
  override def name(): String = "airphant"
  override def schema(): StructType = AirphantSource.schema
  override def capabilities(): util.Set[TableCapability] =
    Set(TableCapability.BATCH_READ).asJava
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new AirphantScanBuilder(options)
}

/** Reads its options case-insensitively, as Spark documents them. */
private[datasource] class AirphantScanBuilder(options: CaseInsensitiveStringMap)
    extends ScanBuilder with SupportsPushDownFilters {

  private def option(key: String): Option[String] = Option(options.get(key))

  private var keywords: Option[Seq[String]] =
    option("keyword").map(_.split(",").toSeq.map(_.trim).filter(_.nonEmpty))
  private var pushed: Array[Filter] = Array.empty

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    val usable = filters.collect {
      case EqualTo("word", v: String) => Seq(v)
      case In("word", vs) if vs.forall(_.isInstanceOf[String]) =>
        vs.toSeq.map(_.asInstanceOf[String])
    }
    if (usable.nonEmpty) {
      pushed = filters.filter {
        case EqualTo("word", _) | In("word", _) => true
        case _ => false
      }
      // Intersect keyword sets if both the option and filters constrain words.
      val fromFilters = usable.reduce(_ intersect _)
      keywords = Some(keywords.fold(fromFilters)(_ intersect fromFilters))
    }
    filters // all filters remain residual: Spark re-evaluates them (cheap, safe)
  }

  override def pushedFilters(): Array[Filter] = pushed

  override def build(): Scan = {
    val bucket = option("bucket").getOrElse(sys.error("airphant source: missing 'bucket'"))
    val header = option("header").getOrElse(sys.error("airphant source: missing 'header'"))
    val slice = options.getInt("sliceDocs", 512)
    require(slice >= 1, s"airphant source: sliceDocs must be at least 1, got $slice")
    new AirphantScan(bucket, header, keywords, slice)
  }
}

private[datasource] class AirphantScan(bucket: String, header: String,
                                       keywords: Option[Seq[String]], sliceDocs: Int)
    extends Scan with Batch {

  override def readSchema(): StructType = AirphantSource.schema
  override def toBatch: Batch = this

  // Spark may plan one Scan more than once (a copied BatchScanExec asks
  // again), so the header and superposts are fetched once per Scan.
  private lazy val partitions: Array[InputPartition] = {
    val searcher = new Searcher(CloudStorage.named(bucket), header)
    val docBlobs = searcher.mht.docBlobs
    keywords match {
      case Some(kws) =>
        // Driver-side: ONE concurrent superpost batch for all keywords.
        val perWord = searcher.lookupBatch(kws.distinct, new FetchLedger)
        perWord.toSeq.sortBy(_._1).flatMap { case (w, postings) =>
          (0 until postings.size by sliceDocs).map { from =>
            val until = math.min(from + sliceDocs, postings.size)
            KeywordPartition(bucket, w, docBlobs,
              util.Arrays.copyOfRange(postings.keys, from, until),
              util.Arrays.copyOfRange(postings.lengths, from, until)): InputPartition
          }
        }.toArray
      case None =>
        // Full corpus scan: one partition per document blob.
        docBlobs.map(b => FullScanPartition(bucket, b): InputPartition).toArray
    }
  }

  override def planInputPartitions(): Array[InputPartition] = partitions

  override def createReaderFactory(): PartitionReaderFactory = new AirphantReaderFactory()
}

/** Candidate document ranges for one keyword (post-intersection), shipped
  * as the packed arrays of a [[Postings]] slice.
  */
private[datasource] final case class KeywordPartition(
    bucket: String, word: String, docBlobs: Array[String],
    keys: Array[Long], lengths: Array[Int]) extends InputPartition

/** One whole corpus blob for the index-less fallback scan. */
private[datasource] final case class FullScanPartition(bucket: String, blob: String)
    extends InputPartition

private[datasource] class AirphantReaderFactory extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    partition match {
      case p: KeywordPartition  => new KeywordReader(p)
      case p: FullScanPartition => new FullScanReader(p)
    }
}

/** Emits a partition's rows; the two readers below differ only in how
  * they produce them.
  */
private[datasource] class RowReader(rows: Iterator[InternalRow]) extends PartitionReader[InternalRow] {
  private var current: InternalRow = _
  override def next(): Boolean = { if (rows.hasNext) { current = rows.next(); true } else false }
  override def get(): InternalRow = current
  override def close(): Unit = ()
}

/** Fetches its slice of candidate documents in one concurrent batch and
  * emits only exact matches (false positives die here), through the same
  * [[DocFetcher.fetchAndFilter]] the Searcher uses.
  */
private[datasource] class KeywordReader(p: KeywordPartition) extends RowReader(
  DocFetcher.fetchAndFilter(CloudStorage.named(p.bucket), p.docBlobs, new Postings(p.keys, p.lengths),
                            DocFetcher.wordPredicate(p.word), new FetchLedger)
    .docs.iterator.map(d => AirphantRows.row(p.word, d.ref, d.text)))

/** Reads one corpus blob fully, splits documents, explodes words. */
private[datasource] class FullScanReader(p: FullScanPartition) extends RowReader(
  Parsers.splitBlob(CloudStorage.named(p.bucket).get(p.blob, new FetchLedger)).iterator.flatMap {
    case (off, len, text) =>
      Parsers.distinctWords(text).toSeq.sorted.iterator.map(w => AirphantRows.row(w, DocRef(p.blob, off, len), text))
  })

private[datasource] object AirphantRows {
  def row(word: String, ref: DocRef, text: String): InternalRow =
    InternalRow(
      UTF8String.fromString(word),
      UTF8String.fromString(ref.docId),
      UTF8String.fromString(ref.blob),
      ref.offset,
      ref.length,
      UTF8String.fromString(text),
    )
}
