package perfbench

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions.col

import repro.cloudstore.{FetchLedger, NetworkModel}
import repro.core.{BoolQuery, IoUConfig, Posting, PostingsCodec, SearchResult, Searcher}
import repro.corpus.{LogCorpusGen, Parsers}
import repro.exp.Engines

/** What one operation cost and whether its answer was right. */
final case class Outcome(ok: Boolean, virtualMs: Double, bytes: Long,
                         candidates: Int, fetched: Int, falsePositives: Int)

/** One executed operation: its interval, outcome and store calls. */
final case class Step(op: Long, startNs: Long, endNs: Long, outcome: Outcome,
                      calls: Vector[StoreCall]) {
  def latMs: Double = (endNs - startNs) / 1e6
}

/** CPU replays of one traced operation, µs. `lookupUs` and `lookupStoreUs`
  * are set only where the lookup cannot be read off the operation's own
  * store calls (the DataSource plans it inside Spark).
  */
final case class Replay(decodeUs: Double, intersectUs: Double, filterUs: Double,
                        filteredDocs: Int, lookupUs: Option[Double] = None,
                        lookupStoreUs: Double = 0.0)

/** Everything an operation needs once the index is built. */
final case class Ctx(spark: SparkSession, store: TracingStore, bucket: String,
                     searcher: Searcher, headerBlob: String, config: IoUConfig,
                     expected: Expected, spans: Spans)

/** One workload's queries, their execution and their exact check. */
abstract class Ops[A](ctx: Ctx) {
  def size: Int
  /** Executes query `i`; this call alone is timed. */
  def run(i: Int): A
  /** Checks the answer of query `i` against the oracle; `calls` are the
    * store calls it made (empty unless the store was recording).
    */
  def judge(i: Int, answer: A, calls: Seq[StoreCall]): Outcome
  /** Re-runs the operation's CPU stages on the bytes it fetched. */
  def replay(i: Int, calls: Seq[StoreCall]): Replay

  protected def payloads(calls: Seq[StoreCall], blobs: String): Seq[Array[Byte]] =
    calls.filter(_.blobs == blobs).flatMap(_.payload)

  protected def texts(calls: Seq[StoreCall]): Seq[String] =
    payloads(calls, "docs").map(new String(_, "UTF-8"))

  /** Decodes the fetched superposts and, for a word that is not common,
    * intersects them — the lookup's CPU work for one keyword.
    */
  protected def replayLookupCpu(word: String, calls: Seq[StoreCall]): (Double, Double) = {
    val (lists, decodeUs) = ctx.spans.time("core", "decode") {
      payloads(calls, "superposts").map(b => PostingsCodec.decode(b): IndexedSeq[Posting])
    }
    val intersectUs =
      if (ctx.searcher.mht.commonWords.contains(word) || lists.size < 2) 0.0
      else ctx.spans.time("core", "intersect")(Posting.intersectSorted(lists))._2
    (decodeUs, intersectUs)
  }

  /** Runs `body` through the store without logging it against the
    * operation; returns its result and the store calls it made.
    */
  protected def aside[B](body: => B): (B, Vector[StoreCall]) = {
    val (op, capturing) = (ctx.store.op, ctx.store.capturing)
    ctx.store.op = -1L
    ctx.store.capturing = false
    try {
      val b = body
      (b, ctx.store.drain().filter(_.op == -1L))
    } finally { ctx.store.op = op; ctx.store.capturing = capturing }
  }
}

/** Top-10 single-keyword search on the Searcher. */
final class PointOps(ctx: Ctx, words: Vector[String]) extends Ops[SearchResult](ctx) {
  def size: Int = words.size
  def run(i: Int): SearchResult = ctx.searcher.search(words(i), Some(10), ctx.config)
  def judge(i: Int, r: SearchResult, calls: Seq[StoreCall]): Outcome =
    Outcome(Expected.topKOk(ctx.expected.word(words(i)), r.docs.map(_.ref.docId), 10),
            r.stats.totalMs, r.stats.bytes, r.candidates, r.fetched, r.falsePositives)
  def replay(i: Int, calls: Seq[StoreCall]): Replay = {
    val w = words(i)
    val (decodeUs, intersectUs) = replayLookupCpu(w, calls)
    val docs = texts(calls)
    val filterUs = ctx.spans.time("core", "filter")(docs.count(Parsers.containsWord(_, w)))._2
    Replay(decodeUs, intersectUs, filterUs, docs.size)
  }
}

/** Boolean search on the Searcher, checked as a whole set. */
final class BoolOps(ctx: Ctx, queries: Vector[BoolQuery]) extends Ops[SearchResult](ctx) {
  private val exact = queries.map(ctx.expected.bool)
  def size: Int = queries.size
  def run(i: Int): SearchResult = ctx.searcher.searchBoolean(queries(i), ctx.config)
  def judge(i: Int, r: SearchResult, calls: Seq[StoreCall]): Outcome =
    Outcome(Expected.setOk(exact(i), r.docs.map(_.ref.docId)),
            r.stats.totalMs, r.stats.bytes, r.candidates, r.fetched, r.falsePositives)
  def replay(i: Int, calls: Seq[StoreCall]): Replay = {
    val q = queries(i)
    val (_, decodeUs) = ctx.spans.time("core", "decode") {
      payloads(calls, "superposts").map(PostingsCodec.decode)
    }
    val (perTerm, _) = aside(ctx.searcher.lookupBatch(BoolQuery.terms(q).toSeq.sorted, new FetchLedger))
    val intersectUs = ctx.spans.time("core", "intersect")(BoolQuery.candidates(q, perTerm))._2
    val docs = texts(calls)
    val filterUs = ctx.spans.time("core", "filter")(docs.count(BoolQuery.matches(q, _)))._2
    Replay(decodeUs, intersectUs, filterUs, docs.size)
  }
}

/** `word = kw` through `format("airphant")`, collecting every `doc_id`. */
final class SqlOps(ctx: Ctx, words: Vector[String]) extends Ops[Array[Row]](ctx) {
  def size: Int = words.size
  def run(i: Int): Array[Row] =
    ctx.spark.read.format("airphant")
      .option("bucket", ctx.bucket)
      .option("header", ctx.headerBlob)
      .load()
      .where(col("word") === words(i))
      .select("doc_id")
      .collect()

  /** Virtual time: the driver's steps in sequence, then the slowest task's
    * steps (the tasks run concurrently).
    */
  def judge(i: Int, rows: Array[Row], calls: Seq[StoreCall]): Outcome = {
    val ids = rows.toSeq.map(_.getString(0))
    val (driver, tasks) = calls.partition(_.task < 0)
    val slowestTask = tasks.groupMapReduce(_.task)(_.cost.totalMs)(_ + _).values.maxOption.getOrElse(0.0)
    val fetched = calls.filter(_.blobs == "docs").map(_.reqs).sum
    Outcome(Expected.setOk(ctx.expected.word(words(i)), ids),
            driver.map(_.cost.totalMs).sum + slowestTask, calls.map(_.cost.bytes).sum,
            fetched, fetched, math.max(0, fetched - ids.size))
  }

  def replay(i: Int, calls: Seq[StoreCall]): Replay = {
    val w = words(i)
    val (decodeUs, intersectUs) = replayLookupCpu(w, calls.filter(_.task < 0))
    val docs = texts(calls)
    val filterUs = ctx.spans.time("core", "filter")(docs.count(Parsers.containsWord(_, w)))._2
    val t0 = System.nanoTime()
    val (_, lookupCalls) = aside(ctx.searcher.lookupBatch(Seq(w), new FetchLedger))
    val t1 = System.nanoTime()
    ctx.spans.add("core", "lookup", t0, t1)
    Replay(decodeUs, intersectUs, filterUs, docs.size, Some((t1 - t0) / 1e3),
           lookupCalls.map(_.wallNs).sum / 1e3)
  }
}

/** A workload: its corpus, network, sketch configuration and queries.
  *
  * @param waitLStar  query with `waitLayers = L*` (§IV-G replication)
  * @param queries    length of the seeded query list. Every warm-up and
  *                   timed window is one pass over it in the same order, so
  *                   all windows measure the same operations
  * @param verified   length of the seeded list the verification pass runs
  *                   once, checking every answer and taking the virtual
  *                   cost and bytes. Longer than `queries` where a short
  *                   list's mix of costly words would vary too much by seed
  * @param tail       the tail percentile reported; each window holds at
  *                   least ten samples beyond it
  * @param usesSpark  queries run Spark jobs through the DataSource
  */
final case class Workload(name: String, corpus: LogCorpusGen.Spec, model: NetworkModel,
                          config: IoUConfig, waitLStar: Boolean, queries: Int,
                          verified: Int, tail: Double, usesSpark: Boolean) {
  require(Stats.tailPercentile(queries).exists(_ >= tail), s"$name: window too small for p$tail")

  /** The operations of an `n`-query list drawn from `seed`. */
  def ops(ctx: Ctx, docWords: IndexedSeq[IndexedSeq[String]], seed: Long, n: Int): Ops[_] = name match {
    case "point-windows" => new PointOps(ctx, Queries.uniformWords(ctx.expected.byFrequency, n, seed))
    case "bool-hdfs"     => new BoolOps(ctx, Queries.boolMix(ctx.expected.byFrequency, docWords, n, seed))
    case "sql-windows"   => new SqlOps(ctx, Queries.uniformWords(ctx.expected.byFrequency, n, seed))
  }
}

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("point-windows", LogCorpusGen.windows, NetworkModel(), Engines.benchConfig,
             waitLStar = false, queries = 2000, verified = 2000, tail = 0.9, usesSpark = false),
    Workload("bool-hdfs", LogCorpusGen.hdfs, NetworkModel(tailProbability = 0.01, tailMultiplier = 20),
             Engines.benchConfig.copy(extraLayers = 1),
             waitLStar = true, queries = 1000, verified = 1000, tail = 0.99, usesSpark = false),
    Workload("sql-windows", LogCorpusGen.windows, NetworkModel(), Engines.benchConfig,
             waitLStar = false, queries = 50, verified = 150, tail = 0.8, usesSpark = true),
  )

  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
