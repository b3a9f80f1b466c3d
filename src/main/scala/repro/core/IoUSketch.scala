package repro.core

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** Word→bin hashing shared by the in-memory sketch, the Builder and the
  * Searcher. One murmur3 seed per layer approximates the paper's pairwise
  * independent hash family.
  */
object Hashing {
  def bin(word: String, seed: Int, binsPerLayer: Int): Int =
    math.floorMod(MurmurHash3.stringHash(word, seed), binsPerLayer)
}

/** In-memory reference IoU Sketch over abstract Long document keys
  * (§IV-A's data structure, with exactly its two operations).
  *
  * This is the semantic ground truth the persisted index is tested
  * against, and the engine for the accuracy sweeps (Figures 5, 10a, 16a)
  * where only false-positive *counts* matter — no storage involved.
  */
final class IoUSketch(val layers: Int, val binsPerLayer: Int, val seeds: Array[Int]) {
  require(layers >= 1 && binsPerLayer >= 1 && seeds.length == layers)

  private val bins: Array[Array[mutable.LongMap[Unit]]] =
    Array.fill(layers)(Array.fill(binsPerLayer)(null))

  /** The bin this word maps to in each layer. */
  def binsOf(word: String): Array[Int] =
    Array.tabulate(layers)(l => Hashing.bin(word, seeds(l), binsPerLayer))

  /** insert(word, postings): union the word's postings into its bin of
    * every layer.
    */
  def insert(word: String, docs: IterableOnce[Long]): Unit = {
    val bs = binsOf(word)
    val docSeq = docs.iterator.toArray
    var l = 0
    while (l < layers) {
      var set = bins(l)(bs(l))
      if (set == null) { set = mutable.LongMap.empty[Unit]; bins(l)(bs(l)) = set }
      docSeq.foreach(d => set.update(d, ()))
      l += 1
    }
  }

  /** query(word): intersect the word's superposts across all layers.
    * No false negatives by construction; false positives possible.
    */
  def query(word: String): Array[Long] = {
    val bs = binsOf(word)
    val sets = Array.tabulate(layers)(l => bins(l)(bs(l)))
    if (sets.exists(_ == null)) return Array.empty
    val smallest = sets.minBy(_.size)
    val others = sets.filter(_ ne smallest)
    smallest.keys.iterator.filter(d => others.forall(_.contains(d))).toArray.sorted
  }

  /** The raw superpost of one (layer, bin) — for structural tests. */
  def superpost(layer: Int, bin: Int): Set[Long] = {
    val s = bins(layer)(bin)
    if (s == null) Set.empty else s.keys.iterator.toSet
  }
}

object IoUSketch {
  /** Build an in-memory sketch from (word → document keys) postings. */
  def fromPostings(layers: Int, binsPerLayer: Int, seeds: Array[Int],
                   postings: Iterable[(String, Array[Long])]): IoUSketch = {
    val s = new IoUSketch(layers, binsPerLayer, seeds)
    postings.foreach { case (w, docs) => s.insert(w, docs) }
    s
  }
}
