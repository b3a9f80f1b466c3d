package repro.jobs

import scala.collection.immutable.ListMap

import org.apache.spark.sql.SparkSession

import repro.exp._

/** Shared session bootstrap for all spark-submit entrypoints. */
private[jobs] object JobSession {
  def create(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** One entrypoint for every reproduced table and figure:
  * `spark-submit --class repro.jobs.Run <jar> <name>` (or
  * `sbt "runMain repro.jobs.Run <name>"`). It prints the rendered table.
  * With no name or an unknown one it lists the valid names and exits 2.
  */
object Run {

  /** Experiment name → run it on a session and render its table. */
  val experiments: ListMap[String, SparkSession => String] = ListMap(
    "table2" -> (s => TableIIExp.render(TableIIExp.run(s))),    // corpus statistics
    "fig5"   -> (s => Fig5Exp.render(Fig5Exp.run(s))),          // FP vs (B, L), Cranfield-like
    "fig6"   -> (s => Fig6Exp.render(Fig6Exp.run(s))),          // within-region latencies
    "fig7"   -> (s => Fig7Exp.render(Fig7Exp.run(s))),          // cross-region, Windows-like
    "fig8"   -> (s => Fig8Exp.render(Fig8Exp.run(s))),          // wait/download breakdown
    "fig9"   -> (_ => Fig9Exp.render(Fig9Exp.run())),           // cost model (closed form)
    "fig10"  -> { s => val (rows, lStars) = Fig10Exp.run(s); Fig10Exp.render(rows, lStars) },
    "fig14"  -> (s => Fig14Exp.render(Fig14Exp.run(s))),        // term-index lookup latency
    "fig15"  -> (s => Fig15Exp.render(Fig15Exp.run(s))),        // scalability with corpus size
    "fig16"  -> (s => Fig16Exp.render(Fig16Exp.run(s))),        // tiny IoU structures
    "fig17"  -> (s => Fig17Exp.render(Fig17Exp.run(s))),        // accuracy budget sweep
  )

  def main(args: Array[String]): Unit = args.headOption.filter(experiments.contains) match {
    case Some(name) =>
      val spark = JobSession.create(name)
      try println(experiments(name)(spark)) finally spark.stop()
    case None =>
      System.err.println(s"usage: repro.jobs.Run <name>; names: ${experiments.keys.mkString(", ")}")
      sys.exit(2)
  }
}
