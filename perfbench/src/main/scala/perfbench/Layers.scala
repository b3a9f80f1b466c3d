package perfbench

import scala.collection.mutable.ArrayBuffer

/** Per-layer samples of the traced operations, from their store calls, the
  * operation's own interval and the CPU replays.
  */
private final class Layers(wl: Workload, spans: Spans) {
  private val perOp = scala.collection.mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  private def add(name: String, v: Double): Unit = perOp.getOrElseUpdate(name, ArrayBuffer.empty) += v
  private val batchUs = ArrayBuffer.empty[Double]
  private var filterUs = 0.0
  private var filteredDocs = 0L

  /** Records operation `i`'s step: spans, counts and replays. */
  def record[A](ops: Ops[A], i: Int, s: Step): Unit = {
    val calls = s.calls
    spans.op = s.op
    val root = spans.add("client", wl.name, s.startNs, s.endNs, parentId = -1)

    // Searcher operations: the lookup ends where the first document batch starts.
    val lookupEnd = calls.filter(c => c.task < 0 && c.blobs == "docs").map(_.startNs)
      .minOption.getOrElse(s.endNs)
    val (lookupSpan, fetchSpan) =
      if (wl.usesSpark) (root, root)
      else (spans.add("core", "lookup", s.startNs, lookupEnd, root),
            spans.add("core", "docfetch", lookupEnd, s.endNs, root))
    calls.foreach { c =>
      val parent = if (c.blobs == "docs") fetchSpan else lookupSpan
      spans.add("cloudstore", s"${c.kind}:${c.blobs}", c.startNs, c.endNs, parent)
    }

    add("cloudstore.batches_per_op", calls.count(_.isBatch))
    add("cloudstore.requests_per_op", calls.map(_.reqs).sum)
    add("cloudstore.bytes_per_op", calls.map(_.cost.bytes).sum.toDouble)
    add("cloudstore.kofn_batches_per_op", calls.count(_.kind == "kofn"))
    batchUs ++= calls.filter(_.isBatch).map(_.wallNs / 1e3)
    add("cloudstore.busy_us_per_op", calls.map(_.wallNs).sum / 1e3)
    add("cloudstore.virtual_wait_ms_per_op", calls.map(_.cost.waitMs).sum)
    add("cloudstore.virtual_download_ms_per_op", calls.map(_.cost.downloadMs).sum)
    add("cloudstore.round_trips_per_op", calls.map(_.cost.roundTripSteps).sum)

    val replayStart = System.nanoTime()
    val replaySpan = spans.add("replay", wl.name, replayStart, replayStart, parentId = -1)
    spans.parent = replaySpan
    val r = ops.replay(i, calls)
    spans.close(replaySpan, System.nanoTime())

    val opUs = (s.endNs - s.startNs) / 1e3
    val superpostCalls = calls.filter(_.blobs == "superposts")
    val (lookupUs, lookupStoreUs) = r.lookupUs match {
      case Some(us) => (us, r.lookupStoreUs)
      case None => ((lookupEnd - s.startNs) / 1e3,
                    superpostCalls.filter(_.endNs <= lookupEnd).map(_.wallNs).sum / 1e3)
    }
    add("core.lookup_us", lookupUs)
    add("core.lookup_self_us", lookupUs - lookupStoreUs)
    add("core.decode_us_per_op", r.decodeUs)
    add("core.intersect_us_per_op", r.intersectUs)
    add("core.docfetch_us", opUs - lookupUs)
    filterUs += r.filterUs
    filteredDocs += r.filteredDocs
    add("core.superposts_per_op", superpostCalls.map(_.payload.size).sum)
    add("core.superpost_bytes_per_op", superpostCalls.flatMap(_.payload).map(_.length).sum)
    add("core.candidates_per_op", s.outcome.candidates)
    add("core.docs_fetched_per_op", s.outcome.fetched)
    add("core.false_positives_per_op", s.outcome.falsePositives)

    // DataSource: planning ends with the driver's last store call. Searcher
    // workloads do not use it and report 0.
    if (wl.usesSpark) {
      val (driver, tasks) = calls.partition(_.task < 0)
      val planEnd = driver.map(_.endNs).maxOption.getOrElse(s.startNs)
      add("datasource.plan_ms", (planEnd - s.startNs) / 1e6)
      add("datasource.exec_ms", (s.endNs - planEnd) / 1e6)
      add("datasource.input_partitions_per_query", tasks.map(_.task).distinct.size)
      add("datasource.header_fetches_per_query", driver.count(_.blobs == "header"))
      add("datasource.driver_store_ms_per_query", driver.map(_.wallNs).sum / 1e6)
      add("datasource.task_store_ms_per_query", tasks.map(_.wallNs).sum / 1e6)
    }
  }

  private def sum(name: String): Double = perOp.get(name).map(_.sum).getOrElse(0.0)
  private def mean(name: String): Double = perOp.get(name).map(b => Stats.mean(b.toSeq)).getOrElse(0.0)
  private def p50(name: String): Double =
    perOp.get(name).map(b => Stats.percentile(b.toArray, 0.5)).getOrElse(0.0)

  def report(metric: (String, Double, String) => Unit): Unit = {
    metric("cloudstore.batches_per_op", mean("cloudstore.batches_per_op"), "count")
    metric("cloudstore.requests_per_op", mean("cloudstore.requests_per_op"), "count")
    metric("cloudstore.bytes_per_op", mean("cloudstore.bytes_per_op"), "bytes")
    metric("cloudstore.kofn_batches_per_op", mean("cloudstore.kofn_batches_per_op"), "count")
    metric("cloudstore.batch_us_p50", if (batchUs.isEmpty) 0.0 else Stats.percentile(batchUs.toArray, 0.5), "us")
    metric("cloudstore.busy_us_per_op", mean("cloudstore.busy_us_per_op"), "us")
    metric("cloudstore.virtual_wait_ms_per_op", mean("cloudstore.virtual_wait_ms_per_op"), "ms")
    metric("cloudstore.virtual_download_ms_per_op", mean("cloudstore.virtual_download_ms_per_op"), "ms")
    metric("cloudstore.round_trips_per_op", mean("cloudstore.round_trips_per_op"), "count")
    metric("core.lookup_us_p50", p50("core.lookup_us"), "us")
    metric("core.lookup_self_us_p50", p50("core.lookup_self_us"), "us")
    metric("core.decode_us_per_op", mean("core.decode_us_per_op"), "us")
    metric("core.intersect_us_per_op", mean("core.intersect_us_per_op"), "us")
    metric("core.docfetch_us_p50", p50("core.docfetch_us"), "us")
    metric("core.filter_us_per_doc", if (filteredDocs == 0) 0.0 else filterUs / filteredDocs, "us")
    metric("core.superposts_per_op", mean("core.superposts_per_op"), "count")
    metric("core.superpost_bytes_per_op", mean("core.superpost_bytes_per_op"), "bytes")
    metric("core.candidates_per_op", mean("core.candidates_per_op"), "count")
    metric("core.docs_fetched_per_op", mean("core.docs_fetched_per_op"), "count")
    metric("core.false_positives_per_op", mean("core.false_positives_per_op"), "count")
    val fetched = sum("core.docs_fetched_per_op")
    metric("core.useful_fetch_ratio",
           if (fetched == 0) 0.0 else (fetched - sum("core.false_positives_per_op")) / fetched, "ratio")
    metric("datasource.plan_ms", p50("datasource.plan_ms"), "ms")
    metric("datasource.exec_ms", p50("datasource.exec_ms"), "ms")
    metric("datasource.input_partitions_per_query", mean("datasource.input_partitions_per_query"), "count")
    metric("datasource.header_fetches_per_query", mean("datasource.header_fetches_per_query"), "count")
    metric("datasource.driver_store_ms_per_query", mean("datasource.driver_store_ms_per_query"), "ms")
    metric("datasource.task_store_ms_per_query", mean("datasource.task_store_ms_per_query"), "ms")
  }
}
