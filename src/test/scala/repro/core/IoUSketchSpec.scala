package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.GenChecks

class IoUSketchSpec extends AnyFunSuite with GenChecks {

  /** Random small corpus: word -> doc ids. */
  private val genCorpus: Gen[Map[String, Array[Long]]] = for {
    nWords <- Gen.choose(5, 120)
    nDocs <- Gen.choose(5, 300)
    corpus <- Gen.sequence[List[(String, Array[Long])], (String, Array[Long])](
      (0 until nWords).toList.map { w =>
        Gen.nonEmptyListOf(Gen.choose(0L, nDocs.toLong))
          .map(ds => (s"w$w", ds.distinct.sorted.toArray))
      })
  } yield corpus.toMap

  private def build(corpus: Map[String, Array[Long]], layers: Int, bins: Int): IoUSketch =
    IoUSketch.fromPostings(layers, bins, IoUConfig().seeds(layers), corpus)

  test("NO FALSE NEGATIVES: query always contains the word's true postings") {
    forAllG(Gen.zip(genCorpus, Gen.choose(1, 6), Gen.choose(2, 64)), trials = 120) {
      case (corpus, layers, bins) =>
        val sketch = build(corpus, layers, bins)
        corpus.foreach { case (w, truth) =>
          val got = sketch.query(w).toSet
          assert(truth.forall(got.contains), s"missing postings for $w")
        }
    }
  }

  test("query result is a subset of every layer's superpost") {
    forAllG(Gen.zip(genCorpus, Gen.choose(2, 5)), trials = 60) { case (corpus, layers) =>
      val sketch = build(corpus, layers, 32)
      corpus.keys.take(10).foreach { w =>
        val result = sketch.query(w).toSet
        sketch.binsOf(w).zipWithIndex.foreach { case (bin, l) =>
          assert(result.subsetOf(sketch.superpost(l, bin)))
        }
      }
    }
  }

  test("unknown word can only produce false positives, never crashes") {
    forAllG(genCorpus, trials = 40) { corpus =>
      val sketch = build(corpus, 3, 16)
      val r = sketch.query("definitely-not-a-word")
      assert(r.sorted.sameElements(r))
    }
  }

  test("single word per bin means exact answers") {
    // Bins >> words: collisions are unlikely, most queries exact.
    val corpus = (0 until 20).map(w => s"w$w" -> Array(w.toLong)).toMap
    val sketch = build(corpus, 2, 4096)
    val exact = corpus.count { case (w, truth) =>
      sketch.query(w).sameElements(truth)
    }
    assert(exact >= 18, s"only $exact/20 exact with 4096 bins per layer")
  }

  test("paper Fig 4 worked example") {
    // Four words, five docs; any sketch must at least contain the truth
    // and the intersection property must hold per the figure's semantics.
    val corpus = Map(
      "w1" -> Array(1L),
      "w2" -> Array(2L, 3L),
      "w3" -> Array(2L, 3L, 4L),
      "w4" -> Array(2L, 4L, 5L))
    val sketch = build(corpus, 3, 2)
    corpus.foreach { case (w, truth) =>
      assert(truth.toSet.subsetOf(sketch.query(w).toSet))
    }
  }

  test("insert is idempotent for identical postings") {
    val sketch = new IoUSketch(2, 8, IoUConfig().seeds(2))
    sketch.insert("a", Seq(1L, 2L))
    val before = sketch.query("a").toSeq
    sketch.insert("a", Seq(1L, 2L))
    assert(sketch.query("a").toSeq == before)
  }

  test("more layers reduce false positives (the core claim, statistically)") {
    // Dense corpus so L = 1 collides heavily.
    val rng = new scala.util.Random(7)
    val corpus = (0 until 400).map { w =>
      s"w$w" -> Array.fill(8)(rng.nextInt(500).toLong).distinct.sorted
    }.toMap
    def avgFp(layers: Int): Double = {
      val sketch = build(corpus, layers, 96 / layers) // fixed B = 96 total bins
      val fps = corpus.toSeq.take(100).map { case (w, truth) =>
        sketch.query(w).length - truth.length
      }
      fps.sum.toDouble / fps.size
    }
    val fp1 = avgFp(1); val fp2 = avgFp(2); val fp4 = avgFp(4)
    assert(fp1 > fp2, s"L=1 fp=$fp1 should exceed L=2 fp=$fp2")
    assert(fp2 > fp4, s"L=2 fp=$fp2 should exceed L=4 fp=$fp4")
  }

  test("observed false positives track the expected F(L) (Eq. 2)") {
    val rng = new scala.util.Random(13)
    val nDocs = 400
    // documents each with ~10 distinct words from a 300-word vocabulary
    val docWords = (0 until nDocs).map(d => Seq.fill(10)(s"w${rng.nextInt(300)}").distinct)
    val corpus = docWords.zipWithIndex
      .flatMap { case (ws, d) => ws.map(w => (w, d.toLong)) }
      .groupBy(_._1).map { case (w, ps) => w -> ps.map(_._2).distinct.sorted.toArray }
    val nTerms = corpus.size
    val hist = docWords
      .map(_.size).groupBy(identity)
      .map { case (wi, xs) =>
        IoUMath.HistRow(wi, xs.size.toLong, (nTerms - wi).toDouble / nTerms)
      }.toSeq
    val b = 120; val l = 2
    val sketch = build(corpus, l, b / l)
    val queries = corpus.keys.toSeq.sorted
    val obs = queries.map(w => sketch.query(w).length - corpus(w).length).sum.toDouble / queries.size
    val expected = IoUMath.fExact(l, b.toDouble, hist)
    assert(obs > 0.3 * expected && obs < 3.0 * expected,
           s"observed $obs vs expected $expected")
  }

  test("hashing is stable across sketch instances with equal seeds") {
    val s1 = new IoUSketch(4, 100, IoUConfig().seeds(4))
    val s2 = new IoUSketch(4, 100, IoUConfig().seeds(4))
    forAllG(Gen.alphaNumStr, trials = 50) { w =>
      assert(s1.binsOf(w).sameElements(s2.binsOf(w)))
    }
  }

  test("different layers use different hash functions") {
    val sketch = new IoUSketch(4, 1000, IoUConfig().seeds(4))
    val collisions = (0 until 100).count { i =>
      val bs = sketch.binsOf(s"word$i")
      bs.distinct.length == 1
    }
    assert(collisions < 5, "layers look identical")
  }

  test("constructor validation") {
    intercept[IllegalArgumentException](new IoUSketch(0, 10, Array.empty))
    intercept[IllegalArgumentException](new IoUSketch(2, 10, Array(1))) // wrong seed count
  }
}
