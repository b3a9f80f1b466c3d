package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.GenChecks
import BoolQuery._

class BoolQuerySpec extends AnyFunSuite with GenChecks {

  private val p = (i: Int) => Posting(0, i.toLong * 10, 5)
  private val perTerm: Map[String, Postings] = Map(
    "a" -> Vector(1, 2, 3, 4).map(p),
    "b" -> Vector(3, 4, 5).map(p),
    "c" -> Vector(6).map(p),
    "d" -> Vector.empty,
  ).view.mapValues(Postings.from).toMap

  test("terms collects every distinct term") {
    val q = Or(Seq(And(Seq(Term("a"), Term("b"))), Term("c"), Term("a")))
    assert(terms(q) == Set("a", "b", "c"))
  }

  test("candidates: AND intersects, OR unions (distributivity of Q, §IV-F)") {
    assert(candidates(And(Seq(Term("a"), Term("b"))), perTerm) == Vector(3, 4).map(p))
    assert(candidates(Or(Seq(Term("b"), Term("c"))), perTerm) == Vector(3, 4, 5, 6).map(p))
    assert(candidates(Or(Seq(And(Seq(Term("a"), Term("b"))), Term("c"))), perTerm) ==
           Vector(3, 4, 6).map(p))
  }

  test("empty-term interactions: AND with empty is empty, OR ignores it") {
    assert(candidates(And(Seq(Term("a"), Term("d"))), perTerm).isEmpty)
    assert(candidates(Or(Seq(Term("d"), Term("c"))), perTerm) == Vector(6).map(p))
  }

  test("matches evaluates the Boolean structure on document text") {
    val q = Or(Seq(And(Seq(Term("x"), Term("y"))), Term("z")))
    assert(matches(q, "x y w"))
    assert(matches(q, "z"))
    assert(!matches(q, "x w"))
    assert(!matches(q, "xy z2"))
  }

  test("And/Or require at least one operand") {
    intercept[IllegalArgumentException](And(Nil))
    intercept[IllegalArgumentException](Or(Nil))
  }

  test("candidates of nested expressions equal set-algebra over any postings") {
    val genExpr: Gen[BoolQuery] = {
      val term = Gen.oneOf("a", "b", "c", "d").map(Term(_))
      val small = Gen.choose(1, 3)
      for {
        depth <- Gen.choose(0, 2)
        e <- if (depth == 0) term
             else for {
               op <- Gen.oneOf(0, 1)
               n <- small
               subs <- Gen.listOfN(n, term)
             } yield if (op == 0) And(subs) else Or(subs)
      } yield e
    }
    def setEval(q: BoolQuery): Set[Posting] = q match {
      case Term(w) => perTerm(w).toSet
      case And(qs) => qs.map(setEval).reduce(_ intersect _)
      case Or(qs)  => qs.map(setEval).reduce(_ union _)
    }
    forAllG(genExpr, trials = 200) { q =>
      assert(candidates(q, perTerm).toSet == setEval(q))
    }
  }
}
