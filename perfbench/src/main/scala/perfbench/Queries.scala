package perfbench

import java.util.SplittableRandom

import repro.core.BoolQuery
import repro.core.BoolQuery.{And, Or, Term}

/** Query lists, generated from the workload seed alone. */
object Queries {

  /** `n` words under the uniform prior (§IV-B), drawn as a stratified
    * sample. `byFrequency` is the vocabulary ordered by document
    * frequency. Every word appears ⌊n/|vocab|⌋ times; the remaining
    * n mod |vocab| slots each take one random word from their own run of
    * consecutive words in that order. Each word is equally likely, as the
    * prior asks, yet every seed draws about as many frequent (costly)
    * words as any other, so the seed changes the mix only a little. The
    * list is returned in seeded order.
    */
  def uniformWords(byFrequency: IndexedSeq[String], n: Int, seed: Long): Vector[String] = {
    require(byFrequency.nonEmpty && n >= 0)
    val rng = new SplittableRandom(seed)
    val v = byFrequency.size
    val r = n % v
    val rest = Vector.tabulate(r) { s =>
      val (lo, hi) = (s.toLong * v / r, (s + 1).toLong * v / r)
      byFrequency((lo + rng.nextLong(hi - lo)).toInt)
    }
    shuffle(Vector.fill(n / v)(byFrequency).flatten ++ rest, rng)
  }

  /** Fisher–Yates shuffle driven by `rng`. */
  def shuffle[A](xs: Vector[A], rng: SplittableRandom): Vector[A] = {
    val a = xs.toArray[Any]
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a.toVector.asInstanceOf[Vector[A]]
  }

  /** Alternating `Or(a, b)` and `And(a, b)`.
    *
    * For `Or`, a and b are words from the uniform prior. For `And`, a is
    * from the uniform prior, the document is a seeded random one among
    * those containing a, and b is another of its words, so every
    * conjunction has a non-empty answer. Prior words come from one
    * stratified sample ([[uniformWords]]); `docWords` holds each document's
    * distinct words.
    */
  def boolMix(byFrequency: IndexedSeq[String], docWords: IndexedSeq[IndexedSeq[String]],
              n: Int, seed: Long): Vector[BoolQuery] = {
    val docsOf: Map[String, Array[Int]] = docWords.indices
      .flatMap(d => docWords(d).map(_ -> d)).groupMap(_._1)(_._2).map { case (w, ds) => w -> ds.toArray }
    val prior = uniformWords(byFrequency, 2 * n, seed).iterator
    val rng = new SplittableRandom(seed ^ 0x5DEECE66DL)
    Vector.tabulate(n) { q =>
      val a = prior.next()
      if (q % 2 == 0) Or(Seq(Term(a), Term(prior.next())))
      else {
        prior.next()
        val ds = docsOf(a)
        val others = docWords(ds(rng.nextInt(ds.length))).filter(_ != a)
        if (others.isEmpty) And(Seq(Term(a)))
        else And(Seq(Term(a), Term(others(rng.nextInt(others.size)))))
      }
    }
  }
}
