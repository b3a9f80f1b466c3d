package repro.corpus

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.GenChecks

class ParsersSpec extends AnyFunSuite with GenChecks {

  test("whitespace analyzer splits on runs of whitespace, keeps tokens verbatim") {
    assert(Parsers.words("hello world").toSeq == Seq("hello", "world"))
    assert(Parsers.words("  a\t b\n c ").toSeq == Seq("a", "b", "c"))
    assert(Parsers.words("Hello HELLO").toSeq == Seq("Hello", "HELLO")) // no lowercasing
    assert(Parsers.words("").isEmpty)
    assert(Parsers.words("   ").isEmpty)
  }

  test("distinctWords deduplicates") {
    assert(Parsers.distinctWords("a b a b c") == Set("a", "b", "c"))
  }

  test("containsWord is exact token match, not substring") {
    assert(Parsers.containsWord("hello airphant", "airphant"))
    assert(!Parsers.containsWord("hello airphants", "airphant"))
    assert(!Parsers.containsWord("helloairphant", "airphant"))
  }

  test("containsWord agrees with words(text).contains on any Unicode text") {
    // Java `\s` chars, Unicode spaces `\s` does not match, and plain letters.
    val alphabet = " \t\n\u000B\f\r\u00A0\u2003\u0085\u001C\u001D\u001E\u001Fab".toSeq
    val genChar = Gen.frequency(9 -> Gen.oneOf(alphabet), 1 -> Gen.choose(Char.MinValue, Char.MaxValue))
    val genText = Gen.listOf(genChar).map(_.mkString)
    def agree(text: String, word: String): Unit =
      assert(Parsers.containsWord(text, word) == Parsers.words(text).contains(word),
             s"text ${text.map(_.toInt)} word ${word.map(_.toInt)}")
    forAllG(Gen.zip(genText, Gen.listOf(genChar).map(_.take(3).mkString)), trials = 500) {
      case (text, word) =>
        agree(text, word)
        Parsers.words(text).foreach(agree(text, _))
    }
    val cases = Seq(
      "a\u00A0b" -> "a", "a\u00A0b" -> "a\u00A0b", "a\u2003b" -> "a", "a\u2003b" -> "a\u2003b",
      "a\u0085b" -> "b", "a\u0085b" -> "a\u0085b", "x\u001Cy" -> "x", "x\u001Fy" -> "x\u001Fy",
      "x\u001Dy\u001E" -> "y", "a\u000Bb" -> "b", "a\fb" -> "a", "a\fb" -> "a\fb",
      "  lead" -> "lead", "trail \t" -> "trail", " \n both\r " -> "both", " \n both\r " -> "",
      "" -> "", "x" -> "", "a b" -> "a b", "a  b" -> " ", "a b" -> "b ",
      "airphants airphant" -> "airphant", "airphants airphantx" -> "airphant",
      "aa aaa aa" -> "aa", "aaa aaaa" -> "aa", "aa aaa aa" -> "aaa",
    )
    cases.foreach { case (t, w) => agree(t, w) }
  }

  test("splitBlob splits newline-delimited docs with exact byte ranges") {
    val bytes = "doc one\ndoc two\nthird".getBytes("UTF-8")
    val docs = Parsers.splitBlob(bytes)
    assert(docs.map(_._3) == Seq("doc one", "doc two", "third"))
    docs.foreach { case (off, len, text) =>
      assert(new String(bytes, off.toInt, len, "UTF-8") == text)
    }
  }

  test("splitBlob skips empty lines and trailing newline") {
    assert(Parsers.splitBlob("a\n\n\nb\n".getBytes).map(_._3) == Seq("a", "b"))
    assert(Parsers.splitBlob(Array.empty[Byte]).isEmpty)
    assert(Parsers.splitBlob("\n\n".getBytes).isEmpty)
  }

  test("splitBlob round trips any newline-joined document list") {
    val genDocs = Gen.listOf(Gen.nonEmptyListOf(Gen.alphaNumChar).map(_.mkString))
    forAllG(genDocs, trials = 100) { texts =>
      val bytes = texts.mkString("\n").getBytes("UTF-8")
      assert(Parsers.splitBlob(bytes).map(_._3) == texts)
    }
  }

  test("range identity: each (offset, length) slices back to the text") {
    forAllG(Gen.listOfN(5, Gen.nonEmptyListOf(Gen.alphaChar).map(_.mkString)), trials = 50) { texts =>
      val bytes = (texts.mkString("\n") + "\n").getBytes("UTF-8")
      Parsers.splitBlob(bytes).foreach { case (off, len, text) =>
        assert(new String(bytes, off.toInt, len, "UTF-8") == text)
      }
    }
  }
}
