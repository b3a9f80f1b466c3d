package perfbench

import org.apache.spark.sql.DataFrame

import repro.core.BoolQuery
import repro.core.BoolQuery.{And, Or, Term}

/** Exact answers from the exploded (word, document) relation of the
  * corpus. Nothing here reads the index, so it can judge the index.
  * Documents are named `blob:offset`, the id both the Searcher
  * (`DocRef.docId`) and the DataSource (`doc_id`) report.
  */
final class Expected(byWord: Map[String, Set[String]]) {

  /** The realised vocabulary by descending document frequency, ties by word. */
  val byFrequency: Vector[String] = byWord.keys.toVector.sorted.sortBy(w => -byWord(w).size)

  def word(w: String): Set[String] = byWord.getOrElse(w, Set.empty)

  def bool(q: BoolQuery): Set[String] = q match {
    case Term(w) => word(w)
    case And(qs) => qs.map(bool).reduce(_ intersect _)
    case Or(qs)  => qs.map(bool).reduce(_ union _)
  }
}

object Expected {

  def apply(pairs: Iterable[(String, String)]): Expected =
    new Expected(pairs.groupMap(_._1)(_._2).map { case (w, ds) => w -> ds.toSet })

  /** The relation of a corpus frame (blob, offset, text), exploded on the
    * client from the collected documents. Also returns each document's
    * distinct words, in document order.
    */
  def of(docs: DataFrame): (Expected, Vector[Vector[String]]) = {
    val rows = docs.select("blob", "offset", "text").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getString(2)))
      .sortBy(r => (r._1, r._2))
    val docWords = rows.map(r => r._3.split("\\s+").filter(_.nonEmpty).distinct.sorted.toVector).toVector
    val pairs = rows.iterator.zip(docWords.iterator).flatMap { case ((blob, off, _), ws) =>
      val id = s"$blob:$off"
      ws.iterator.map(_ -> id)
    }
    (Expected(pairs.toSeq), docWords)
  }

  /** A top-k answer is right when it holds min(k, |exact|) distinct
    * documents, each in the exact answer.
    */
  def topKOk(exact: Set[String], got: Seq[String], k: Int): Boolean =
    got.size == math.min(k, exact.size) && got.distinct.size == got.size && got.forall(exact)

  /** A full answer is right when it is the exact set, without duplicates. */
  def setOk(exact: Set[String], got: Seq[String]): Boolean =
    got.size == exact.size && got.forall(exact) && got.distinct.size == got.size
}
