package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{GenChecks, Oracle, SparkSpec}
import repro.GenChecks.IndexCase
import repro.cloudstore.{CloudStorage, LocalCloudStorage, NetworkModel}
import repro.corpus.CorpusWriter

/** Generated corpora, configurations and words through Builder → store →
  * Searcher, checked against DuckDB over the (word, doc_id) relation: full
  * and top-10 search of every word, and an And and an Or of word pairs.
  */
class DifferentialSpec extends SparkSpec with GenChecks {

  private val bucket = "diff"
  private lazy val store: LocalCloudStorage = {
    val s = new LocalCloudStorage(NetworkModel())
    CloudStorage.register(bucket, s)
    s
  }

  private val TopK = 10

  /** Runs `c` and compares every answer with DuckDB in one query. */
  private def check(name: String, c: IndexCase): Unit = {
    import spark.implicits._
    store // force registration
    val raw = c.docs.zipWithIndex.map { case (t, i) => (i.toLong, t) }.toDF("doc_id", "text")
    val docs = CorpusWriter.write(spark, raw, bucket, s"$name/corpus", numBlobs = 3)
    val built = Builder.build(spark, docs, bucket, s"$name/iou", c.config)
    val searcher = new Searcher(store, built.headerBlob,
                                Some(built.optimizedLayers).filter(_ => c.waitLayers))

    // Each query with the condition DuckDB selects its doc_ids from postings by.
    val queries: Seq[(String, BoolQuery)] =
      c.words.map(w => (s"word = '$w'", BoolQuery.Term(w))) ++
      c.words.zip(c.words.tail).flatMap { case (a, b) =>
        val (ta, tb) = (BoolQuery.Term(a), BoolQuery.Term(b))
        Seq((s"word = '$a' INTERSECT SELECT doc_id FROM postings WHERE word = '$b'",
             BoolQuery.And(Seq(ta, tb))),
            (s"word = '$a' UNION SELECT doc_id FROM postings WHERE word = '$b'",
             BoolQuery.Or(Seq(ta, tb))))
      }
    val answers = queries.zipWithIndex.map { case ((_, q), i) =>
      val r = q match {
        case BoolQuery.Term(w) =>
          val full = searcher.search(w)
          val truth = full.docs.map(_.ref.docId).toSet
          val top = searcher.search(w, Some(TopK), c.config).docs.map(_.ref.docId)
          assert(top.size == math.min(TopK, truth.size) && top.toSet.subsetOf(truth) &&
                 top.distinct.size == top.size, s"top-$TopK of $w in $c")
          full
        case _ => searcher.searchBoolean(q)
      }
      r.docs.map(d => (s"q$i", d.ref.docId))
    }
    val sql = queries.zipWithIndex.map { case ((where, _), i) =>
      s"SELECT 'q$i' AS q, doc_id FROM (SELECT doc_id FROM postings WHERE $where)"
    }.mkString(" UNION ALL ")
    val postings: DataFrame =
      docs.select(concat($"blob", lit(":"), $"offset") as "doc_id",
                  explode(array_distinct(split($"text", " "))) as "word")
    Oracle.assertEquivalent(answers.flatten.toDF("q", "doc_id"), sql, "postings" -> postings)
  }

  GenChecks.Corners.foreach { corner =>
    test(s"generated corpora at the $corner corner answer as DuckDB does") {
      var trial = 0
      forAllG(GenChecks.genIndexCase(corner), trials = 2) { c =>
        check(s"$corner-$trial", c)
        trial += 1
      }
    }
  }
}
