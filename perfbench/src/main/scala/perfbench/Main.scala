package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.cloudstore.{CloudStorage, LocalCloudStorage}
import repro.core.{Builder, Searcher}
import repro.corpus.{CorpusProfile, CorpusWriter, LogCorpusGen}

/** Benchmark entry point: one workload, one seed, one JVM.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * Prints a table of metrics and, as its last line, one JSON object. With
  * `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
  * are the per-layer ones. Exits 1 if any answer was wrong.
  */
object Main {
  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: File)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
         new File(need("out")))
  }

  def main(args: Array[String]): Unit = {
    val code =
      try new Run(parse(args)).apply()
      catch { case e: Throwable => e.printStackTrace(); 2 }
    System.out.flush()
    System.exit(code)
  }
}

/** Process-wide CPU, GC and allocation counters. */
private final class JvmMeter {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala

  var cpuNs, gcMs, allocBytes, ops = 0L
  private var at = (0L, 0L, 0L)

  private def now = (os.getProcessCpuTime, gcs.map(_.getCollectionTime).sum,
                     threads.getTotalThreadAllocatedBytes)

  def reset(): Unit = { cpuNs = 0; gcMs = 0; allocBytes = 0; ops = 0 }
  def start(): Unit = at = now
  def stop(n: Int): Unit = {
    val (c, g, a) = now
    cpuNs += c - at._1; gcMs += g - at._2; allocBytes += a - at._3; ops += n
  }
}

/** One index build as set-up time counts it: profile, build, header load. */
private final case class Build(profileS: Double, buildS: Double, headerMs: Double,
                               built: Builder.BuiltSketch, searcher: Searcher) {
  def setupS: Double = profileS + buildS + headerMs / 1e3
}

private final class Run(a: Main.Args) {
  private val wl = Workload.named(a.workload)
  private val log = System.err
  private val spans = new Spans
  private val jvm = new JvmMeter
  private var opId = 0L
  private var attempted, failed = 0L
  private var firstError: Option[Throwable] = None
  private var store: TracingStore = _
  private val born = System.nanoTime()
  private def phase(what: String): Unit =
    log.println(f"[perfbench] ${(System.nanoTime() - born) / 1e9}%7.2f s  $what")

  /** Metrics in print order: name -> (value, unit). */
  private val out = ArrayBuffer.empty[(String, Double, String)]
  private def metric(name: String, value: Double, unit: String): Unit = out += ((name, value, unit))

  private def secondsOf[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def apply(): Int = {
    a.out.mkdirs()
    val (spark, sessionS) = secondsOf(session())
    try measure(spark, sessionS) finally spark.stop()
  }

  private def session(): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.local.dir", new File(a.out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(a.out, "warehouse").getAbsolutePath)
      .getOrCreate()
  }

  private def build(spark: SparkSession, docs: DataFrame, bucket: String, prefix: String): Build = {
    val (profile, profileS) = secondsOf(CorpusProfile.profile(
      spark, docs, maxTopWords = math.max(wl.config.commonBins, 100)))
    val (built, buildS) = secondsOf(Builder.build(spark, docs, bucket, prefix, wl.config, Some(profile)))
    val (searcher, headerS) = secondsOf(new Searcher(store, built.headerBlob,
      if (wl.waitLStar) Some(built.optimizedLayers) else None))
    log.println(f"[perfbench] build $prefix: profile $profileS%.3f s, build $buildS%.3f s, " +
                f"header ${headerS * 1e3}%.2f ms, L=${built.layers}")
    Build(profileS, buildS, headerS * 1e3, built, searcher)
  }

  private val Failed = Outcome(ok = false, 0.0, 0L, 0, 0, 0)

  private def step[A](ops: Ops[A], i: Int): Step = {
    opId += 1
    store.op = opId
    val t0 = System.nanoTime()
    val answer = try Right(ops.run(i)) catch { case NonFatal(e) => Left(e) }
    val t1 = System.nanoTime()
    val calls = if (store.recording) store.drain().filter(_.op == opId) else Vector.empty
    val outcome = answer match {
      case Right(r) => try ops.judge(i, r, calls) catch { case NonFatal(e) => firstError = firstError.orElse(Some(e)); Failed }
      case Left(e)  => firstError = firstError.orElse(Some(e)); Failed
    }
    attempted += 1
    if (!outcome.ok) failed += 1
    Step(opId, t0, t1, outcome, calls)
  }

  private var cursor = -1
  private def next(n: Int): Int = { cursor = (cursor + 1) % n; cursor }

  /** Runs one pass over the query list as a window; None if the deadline
    * cut it short. With `layers` the window is traced into them.
    */
  private def window[A](ops: Ops[A], deadline: Long, layers: Option[Layers]): Option[Stats.Window] = {
    store.recording = layers.isDefined
    store.capturing = layers.isDefined
    val lat = new Array[Double](ops.size)
    if (layers.isEmpty) jvm.start()
    val start = System.nanoTime()
    for (k <- lat.indices) {
      if (System.nanoTime() > deadline) return None
      val i = next(ops.size)
      val s = step(ops, i)
      lat(k) = s.latMs
      layers.foreach(_.record(ops, i, s))
    }
    val w = Stats.Window(lat, System.nanoTime() - start)
    if (layers.isEmpty) jvm.stop(lat.length)
    Some(w)
  }

  private def measure(spark: SparkSession, sessionS: Double): Int = {
    val bucket = s"perfbench-${wl.name}"
    store = new TracingStore(new LocalCloudStorage(wl.model))
    CloudStorage.register(bucket, store)
    val tasks = new AtomicLong
    spark.sparkContext.addSparkListener(new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()
    })

    // Set-up: upload the corpus once, then index it several times.
    phase("session started")
    val (docs, writeS) = secondsOf(CorpusWriter.write(
      spark, LogCorpusGen.generate(spark, wl.corpus), bucket, wl.corpus.name))
    val corpusBytes = store.list().filter(_.startsWith(wl.corpus.name + "/docs-")).map(store.size).sum
    val builds = (0 to Run.WarmBuilds).map(i => build(spark, docs, bucket, s"index-$i"))
    val (cold, warm) = (builds.head, builds.tail)
    val sketch = warm.last
    phase("indexed")
    val (expected, docWords) = Expected.of(docs)
    phase("exact answers computed")
    val ctx = Ctx(spark, store, bucket, sketch.searcher, sketch.built.headerBlob, wl.config,
                  expected, spans)
    val ops = wl.ops(ctx, docWords, a.seed, wl.queries)

    // Verification pass: every query of its list once, with its virtual cost.
    store.recording = true
    val verify = wl.ops(ctx, docWords, a.seed, wl.verified)
    val verified = (0 until verify.size).map(i => step(verify, i).outcome)
    phase("verification pass done")

    // Warm-up: at least WarmupMinS, then until the per-window median stops drifting.
    val warmStart = System.nanoTime()
    val warmDeadline = warmStart + (Run.WarmupCapS * 1e9).toLong
    var prev = Double.NaN
    var steady = 0
    var warmWindows = 0
    val warmP50s = ArrayBuffer.empty[Double]
    def warmedUp = steady >= Run.SteadyWindows && System.nanoTime() - warmStart > Run.WarmupMinS * 1e9
    while (!warmedUp && System.nanoTime() < warmDeadline) {
      window(ops, warmDeadline, None).foreach { w =>
        val p50 = Stats.percentile(w.latencies, 0.5)
        steady = if (math.abs(p50 / prev - 1) < Run.Drift) steady + 1 else 0
        prev = p50
        warmWindows += 1
        warmP50s += p50
      }
    }
    phase(s"warm-up done: $warmWindows windows, p50 ms " +
          warmP50s.map(v => f"$v%.3f").mkString(" "))

    // Timed phase: equal windows; a traced run alternates untraced and traced ones.
    jvm.reset()
    Thread.sleep(200) // let the listener bus deliver the set-up's task events
    val tasksBefore = tasks.get()
    val opsBefore = attempted
    val layers = new Layers(wl, spans)
    val plain, traced = ArrayBuffer.empty[Stats.Window]
    val deadline = System.nanoTime() + a.seconds * 1000000000L
    var k = 0
    var more = true
    while (more) {
      val tracedWindow = a.trace && k % 2 == 1
      window(ops, deadline, if (tracedWindow) Some(layers) else None) match {
        case Some(w) => (if (tracedWindow) traced else plain) += w
        case None    => more = false
      }
      k += 1
    }
    store.recording = false
    phase("timed phase done")
    Thread.sleep(200)
    val timedOps = attempted - opsBefore
    val tasksPerQuery = (tasks.get() - tasksBefore).toDouble / math.max(1L, timedOps)
    require(plain.nonEmpty && (!a.trace || traced.nonEmpty),
      s"${a.seconds} s held no full window of ${wl.queries} operations")

    val p50 = Stats.windowMedian(plain.toSeq)(w => Stats.percentile(w.latencies, 0.5))
    val n = plain.map(_.latencies.length).sum
    log.println("[perfbench] window p50 ms " + plain.map(w => f"${Stats.percentile(w.latencies, 0.5)}%.3f").mkString(" "))
    log.println("[perfbench] window tail ms " + plain.map(w => f"${Stats.percentile(w.latencies, wl.tail)}%.3f").mkString(" "))
    Stats.tailPercentile(wl.queries).filter(_ > wl.tail).foreach { p =>
      log.println(f"[perfbench] window p${p * 100}%.0f ms " +
                  plain.map(w => f"${Stats.percentile(w.latencies, p)}%.3f").mkString(" "))
    }
    log.println(f"[perfbench] ${wl.name} seed ${a.seed}: ${plain.size} windows of ${wl.queries} ops" +
                f" ($n timed ops, tail = p${wl.tail * 100}%.0f), ${verified.size} verified queries")

    if (!a.trace) {
      val virtual = verified.map(_.virtualMs).toArray
      metric("setup_s", Stats.median(warm.map(_.setupS)), "s")
      metric("latency_p50_ms", p50, "ms")
      metric("latency_tail_ms", Stats.windowMedian(plain.toSeq)(w => Stats.percentile(w.latencies, wl.tail)), "ms")
      metric("throughput_qps", Stats.windowMedian(plain.toSeq)(_.throughput), "1/s")
      metric("virtual_mean_ms", Stats.mean(virtual.toSeq), "ms")
      metric("virtual_tail_ms", Stats.tailMean(virtual, wl.tail), "ms")
      metric("bytes_per_op", Stats.mean(verified.map(_.bytes.toDouble)), "bytes")
      metric("index_bytes_per_corpus_byte", sketch.built.indexBytes.toDouble / corpusBytes, "ratio")
    } else {
      val tracedP50 = Stats.windowMedian(traced.toSeq)(w => Stats.percentile(w.latencies, 0.5))
      val mht = sketch.searcher.mht
      val superpostSizes = (mht.binPointers.iterator.flatMap(_.iterator).filter(_ != null) ++
        mht.commonWords.valuesIterator).map(_.length.toDouble).toArray
      layers.report(metric)
      metric("core.header_load_ms", Stats.median(warm.map(_.headerMs)), "ms")
      metric("core.header_bytes", store.size(sketch.built.headerBlob).toDouble, "bytes")
      metric("core.layers", mht.layers.toDouble, "count")
      metric("core.max_superpost_bytes", superpostSizes.max, "bytes")
      metric("core.p99_superpost_bytes", Stats.percentile(superpostSizes, 0.99), "bytes")
      metric("core.build_s", Stats.median(warm.map(_.buildS)), "s")
      metric("core.build_cold_s", cold.buildS, "s")
      metric("corpus.profile_s", Stats.median(warm.map(_.profileS)), "s")
      metric("corpus.write_s", writeS, "s")
      metric("spark.tasks_per_query", tasksPerQuery, "count")
      val perOp = math.max(1L, jvm.ops).toDouble
      metric("jvm.cpu_ms_per_op", jvm.cpuNs / 1e6 / perOp, "ms")
      metric("jvm.gc_ms_per_op", jvm.gcMs / perOp, "ms")
      metric("jvm.alloc_bytes_per_op", jvm.allocBytes / perOp, "bytes")
      metric("jvm.session_s", sessionS, "s")
      metric("trace.overhead_pct", (tracedP50 / p50 - 1) * 100, "%")
      val file = new File(a.out, s"spans-${wl.name}-${a.seed}.csv")
      spans.write(file)
      log.println(s"[perfbench] ${spans.size} spans written to $file")
    }

    firstError.foreach { e => log.println("[perfbench] first failure:"); e.printStackTrace(log) }
    val errorRate = failed.toDouble / attempted
    out.foreach { case (name, v, unit) => println(f"$name%-40s $v%16.6f $unit") }
    println(f"${"error_rate"}%-40s $errorRate%16.6f ratio ($failed of $attempted operations)")
    println(Run.json(failed == 0, attempted, failed, out.toSeq))
    if (failed == 0) 0 else 1
  }
}

private object Run {
  /** Warm builds after the cold one; set-up time is their median. */
  val WarmBuilds = 2
  /** Shortest and longest warm-up after the verification pass, seconds. */
  val WarmupMinS = 5.0
  val WarmupCapS = 8.0
  /** The warm-up ends after this many windows in a row whose p50 moved by
    * less than `Drift` from the window before.
    */
  val SteadyWindows = 1
  val Drift = 0.03

  def json(correct: Boolean, attempted: Long, failed: Long, ms: Seq[(String, Double, String)]): String = {
    def num(v: Double) = if (v.isNaN || v.isInfinite) "0" else v.toString
    val body = ms.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${body.mkString(", ")}}}"""
  }
}
