package repro

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.core.IoUConfig

/** Minimal deterministic property-testing harness over ScalaCheck
  * generators. (The scalatest↔scalacheck bridge artifact is not available
  * offline, so suites drive `Gen` directly: each trial evaluates the
  * generator at a fixed seed and runs the assertion body.)
  */
trait GenChecks {
  def forAllG[A](gen: Gen[A], trials: Int = 100)(f: A => Unit): Unit =
    (0 until trials).foreach { i =>
      val a = gen.pureApply(Gen.Parameters.default, Seed(0xC0FFEEL + i * 7919L))
      f(a)
    }
}

object GenChecks {

  /** A small corpus, the sketch configuration to index it with, and the
    * words to query. `waitLayers` asks the Searcher to wait for the
    * optimizer's L* layers only (§IV-G).
    */
  final case class IndexCase(docs: Vector[String], config: IoUConfig, waitLayers: Boolean,
                             words: Vector[String]) {
    override def toString: String =
      s"IndexCase(${docs.size} docs, $config, waitLayers = $waitLayers, words = $words)"
  }

  /** The configuration corners [[genIndexCase]] is built around. */
  val Corners: Vector[String] =
    Vector("collide-everywhere", "single-layer", "replicated", "tiny-blocks")

  /** Word every generated document holds. */
  val EveryDoc: String = "every"

  /** Word no generated document holds. */
  val Absent: String = "absent"

  /** An [[IndexCase]] at `corner`:
    *   - "collide-everywhere": B = 3 bins over 3 layers, one bin a layer, so
    *     every word collides with every other in every layer;
    *   - "single-layer": `layersOverride = Some(1)`;
    *   - "replicated": `extraLayers = 1`, searched with `waitLayers`;
    *   - "tiny-blocks": `blockTargetBytes = 1024`, so superposts spread
    *     over many block blobs.
    * Every corpus holds 150–300 documents, and [[EveryDoc]] is in all of
    * them, so some lists are longer than 128 postings; the words include
    * [[EveryDoc]] and [[Absent]].
    */
  def genIndexCase(corner: String): Gen[IndexCase] = for {
    nDocs <- Gen.choose(150, 300)
    nVocab <- Gen.choose(5, 60)
    perDoc <- Gen.choose(1, 8)
    docs <- Gen.listOfN(nDocs, Gen.listOfN(perDoc, Gen.choose(0, nVocab - 1)))
    bins <- Gen.choose(150, 600)
    f0 <- Gen.oneOf(0.5, 1.0, 4.0)
    picks <- Gen.listOfN(6, Gen.choose(0, nVocab - 1))
  } yield {
    val base = IoUConfig(bins = bins, f0 = f0)
    val config = corner match {
      case "collide-everywhere" => base.copy(bins = 3, layersOverride = Some(3))
      case "single-layer"       => base.copy(layersOverride = Some(1))
      case "replicated"         => base.copy(extraLayers = 1)
      case "tiny-blocks"        => base.copy(blockTargetBytes = 1024)
    }
    val texts = docs.map(ws => (EveryDoc +: ws.map(w => s"w$w")).mkString(" ")).toVector
    IndexCase(texts, config, corner == "replicated",
              (EveryDoc +: Absent +: picks.map(w => s"w$w")).distinct.toVector)
  }
}
