package repro.core

import repro.corpus.Parsers

/** Boolean keyword queries (§IV-F). IoU Sketch natively answers single
  * terms; Boolean structure distributes over it —
  * Q(∨_i ∧_j w_ij) = ∪_i ∩_j Q(w_ij) — with intersections shrinking
  * false positives and unions adding them; the final exact-match filter
  * restores perfect precision either way.
  */
sealed trait BoolQuery

object BoolQuery {
  final case class Term(word: String) extends BoolQuery
  final case class And(qs: Seq[BoolQuery]) extends BoolQuery { require(qs.nonEmpty) }
  final case class Or(qs: Seq[BoolQuery]) extends BoolQuery { require(qs.nonEmpty) }

  /** All distinct terms mentioned in the expression. */
  def terms(q: BoolQuery): Set[String] = q match {
    case Term(w) => Set(w)
    case And(qs) => qs.flatMap(terms).toSet
    case Or(qs)  => qs.flatMap(terms).toSet
  }

  /** Candidate postings via superpost set algebra. */
  def candidates(q: BoolQuery, perTerm: Map[String, Postings]): Postings = q match {
    case Term(w) => perTerm(w)
    case And(qs) => Posting.intersectSorted(qs.map(candidates(_, perTerm)))
    case Or(qs)  => Posting.unionSorted(qs.map(candidates(_, perTerm)))
  }

  /** Exact Boolean evaluation on a document's text. */
  def matches(q: BoolQuery, text: String): Boolean = q match {
    case Term(w) => Parsers.containsWord(text, w)
    case And(qs) => qs.forall(matches(_, text))
    case Or(qs)  => qs.exists(matches(_, text))
  }
}
