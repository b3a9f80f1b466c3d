package repro.corpus

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{array_remove, split}

/** Corpus→document and document→word parsers (§III-C: both are
  * user-selectable; these are the defaults the evaluation uses).
  *
  * The document→word parser mirrors Lucene's `WhitespaceAnalyzer` /
  * Elasticsearch's whitespace analyzer, which the paper feeds all
  * baselines through: split on runs of whitespace, keep tokens verbatim
  * (no lowercasing, no stemming).
  */
object Parsers {

  /** Extract the distinct searchable words of one document. */
  def words(text: String): Array[String] =
    text.split("\\s+").filter(_.nonEmpty)

  /** [[words]] as a Spark column: the `\s+` split of `text` without empty
    * tokens, one per occurrence. Callers `explode` it, or explode its
    * `array_distinct` for a document's distinct words.
    */
  def tokens(text: Column): Column = array_remove(split(text, "\\s+"), "")

  /** Distinct words of one document (the |W_i| set of §IV-A). */
  def distinctWords(text: String): Set[String] = words(text).toSet

  /** Exact-match predicate used for the final false-positive filter:
    * `words(text).contains(word)`, decided without allocating by finding
    * an occurrence of `word` bounded by whitespace or the text's ends.
    */
  def containsWord(text: String, word: String): Boolean = {
    if (word.isEmpty || word.exists(isSpace)) return false
    var at = text.indexOf(word)
    while (at >= 0) {
      val end = at + word.length
      if ((at == 0 || isSpace(text.charAt(at - 1))) && (end == text.length || isSpace(text.charAt(end))))
        return true
      at = text.indexOf(word, at + 1)
    }
    false
  }

  /** Java regex `\s`, the separator of [[words]]: `[ \t\n\x0B\f\r]`.
    * Not `Character.isWhitespace`, which differs on U+001C–U+001F and
    * U+2003: the index tokenizes on `\s`, so any difference is a wrong answer.
    */
  private def isSpace(c: Char): Boolean = c == ' ' || (c >= '\t' && c <= '\r')

  /** Default corpus→document parser: one blob holds newline-delimited
    * documents. Returns each document's (offset, length, text); lengths
    * exclude the delimiter so a range read returns exactly the text.
    */
  def splitBlob(bytes: Array[Byte]): Seq[(Long, Int, String)] = {
    val out = Seq.newBuilder[(Long, Int, String)]
    var start = 0
    var i = 0
    while (i <= bytes.length) {
      if (i == bytes.length || bytes(i) == '\n') {
        if (i > start) {
          out += ((start.toLong, i - start, new String(bytes, start, i - start, "UTF-8")))
        }
        start = i + 1
      }
      i += 1
    }
    out.result()
  }
}
