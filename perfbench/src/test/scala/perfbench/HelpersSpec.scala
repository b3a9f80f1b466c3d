package perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.BoolQuery.{And, Or, Term}

class HelpersSpec extends AnyFunSuite {

  test("tail percentile is the highest with at least ten samples beyond it") {
    assert(Stats.tailPercentile(1000).contains(0.99))
    assert(Stats.tailPercentile(999).contains(0.95))
    assert(Stats.tailPercentile(10000).contains(0.999))
    assert(Stats.tailPercentile(100).contains(0.9))
    assert(Stats.tailPercentile(50).contains(0.8))
    assert(Stats.tailPercentile(20).contains(0.5))
    assert(Stats.tailPercentile(19).isEmpty)
    for (n <- 1 to 3000; p <- Stats.tailPercentile(n))
      assert(n - Stats.rank(n, p) >= 10, s"n=$n p=$p")
  }

  test("nearest-rank percentile") {
    val xs = Array.tabulate(100)(i => (100 - i).toDouble)
    assert(Stats.percentile(xs, 0.99) == 99.0)
    assert(Stats.percentile(xs, 0.5) == 50.0)
    assert(Stats.percentile(xs, 1.0) == 100.0)
    assert(Stats.percentile(Array(7.0), 0.99) == 7.0)
  }

  test("median averages the middle pair of an even sample") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("window-median reduction ignores a burst that hits a few windows") {
    val quiet = Array.fill(500)(1.0)
    val burst = Array.fill(500)(50.0)
    val windows = Seq(quiet, burst, quiet, quiet, burst, quiet, quiet).map(Stats.Window(_, 1000000000L))
    assert(Stats.windowMedian(windows)(w => Stats.percentile(w.latencies, 0.99)) == 1.0)
    assert(Stats.percentile(windows.flatMap(_.latencies).toArray, 0.99) == 50.0)
    assert(Stats.windowMedian(windows)(_.throughput) == 500.0)
  }

  test("tail mean averages the samples at or beyond the percentile") {
    val xs = Array.tabulate(100)(i => (i + 1).toDouble)
    assert(Stats.tailMean(xs, 0.99) == 99.5)
    assert(Stats.tailMean(xs, 0.9) == 95.0)
  }

  private val vocab = Vector.tabulate(305)(i => s"w$i")

  test("the same seed produces identical word lists; another seed reorders them") {
    val a = Queries.uniformWords(vocab, 1000, 42)
    assert(a == Queries.uniformWords(vocab, 1000, 42))
    assert(a != Queries.uniformWords(vocab, 1000, 43))
  }

  test("word lists are balanced: every word ⌊n/|V|⌋ times, the rest one per stratum") {
    val ws = Queries.uniformWords(vocab, 1000, 7)
    assert(ws.size == 1000)
    val counts = ws.groupBy(identity).view.mapValues(_.size).toMap
    assert(vocab.forall(w => counts(w) >= 3))
    val extra = vocab.filter(w => counts(w) == 4)
    assert(extra.size == 1000 - 3 * 305 && counts.values.forall(_ <= 4))
    // 85 strata of the frequency order, one extra word from each.
    val bounds = (0 until 85).map(s => (s * 305 / 85, (s + 1) * 305 / 85))
    val strata = extra.map { w => val i = vocab.indexOf(w); bounds.indexWhere { case (lo, hi) => lo <= i && i < hi } }
    assert(strata.sorted == (0 until 85))
  }

  test("the same seed produces identical Boolean queries whose conjunctions co-occur") {
    val docs = Vector.tabulate(200)(d => Vector(s"w${d % 305}", s"w${(d * 7 + 3) % 305}", "w0").distinct.sorted)
    val words = docs.flatten.distinct.sorted
    val a = Queries.boolMix(words, docs, 400, 9)
    assert(a == Queries.boolMix(words, docs, 400, 9))
    assert(a != Queries.boolMix(words, docs, 400, 10))
    assert(a.collect { case o: Or => o }.size == 200)
    a.collect { case And(ts) => ts.collect { case Term(w) => w } }.foreach { ws =>
      assert(docs.exists(d => ws.forall(d.contains)), s"$ws never co-occur")
    }
  }

  private val oracle = Expected(Seq(
    "a" -> "b0:0", "a" -> "b0:10", "a" -> "b1:0",
    "b" -> "b0:10", "b" -> "b1:5",
    "c" -> "b1:5"))

  test("exact answers follow the Boolean set algebra") {
    assert(oracle.word("a") == Set("b0:0", "b0:10", "b1:0"))
    assert(oracle.bool(And(Seq(Term("a"), Term("b")))) == Set("b0:10"))
    assert(oracle.bool(Or(Seq(Term("b"), Term("c")))) == Set("b0:10", "b1:5"))
    assert(oracle.word("zzz").isEmpty)
    assert(oracle.byFrequency == Vector("a", "b", "c"))
  }

  test("the oracle check accepts right answers and catches planted wrong ones") {
    val exact = oracle.word("a")
    assert(Expected.topKOk(exact, Seq("b1:0", "b0:0"), 2))
    assert(Expected.topKOk(exact, Seq("b1:0", "b0:0", "b0:10"), 10))
    assert(!Expected.topKOk(exact, Seq("b1:0", "b1:5"), 2), "a document without the word")
    assert(!Expected.topKOk(exact, Seq("b1:0"), 2), "too few documents")
    assert(!Expected.topKOk(exact, Seq("b1:0", "b1:0"), 2), "a duplicate")
    assert(Expected.setOk(exact, Seq("b0:10", "b1:0", "b0:0")))
    assert(!Expected.setOk(exact, Seq("b0:10", "b1:0")), "a missed document")
    assert(!Expected.setOk(exact, Seq("b0:10", "b1:0", "b1:5")), "a false positive")
    assert(!Expected.setOk(exact, Seq("b0:10", "b1:0", "b0:0", "b0:0")), "a duplicate")
  }
}
