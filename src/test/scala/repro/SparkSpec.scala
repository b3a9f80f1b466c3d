package repro

import scala.collection.mutable.ArrayBuffer
import scala.concurrent.duration._

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.BeforeAndAfterAll
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** The queries `body` runs, in order. Listener events arrive in query
    * order but after the query returns, so a marker query before `body`
    * sets apart the events of queries that finished earlier, and one after
    * it shows when all of `body`'s have arrived.
    */
  protected def queriesOf(body: => Any): List[QueryExecution] = {
    val seen = ArrayBuffer.empty[QueryExecution]
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        seen.synchronized { seen += qe }
      override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    def marker(): Unit = { spark.range(1).toDF("queries_of_marker").collect(); () }
    def isMarker(qe: QueryExecution) = qe.analyzed.output.map(_.name) == Seq("queries_of_marker")
    spark.listenerManager.register(listener)
    try {
      marker()
      body
      marker()
      eventually(timeout(30.seconds)) {
        val qs = seen.synchronized(seen.toList)
        val markers = qs.indices.filter(i => isMarker(qs(i)))
        assert(markers.size == 2)
        qs.slice(markers(0) + 1, markers(1))
      }
    } finally spark.listenerManager.unregister(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
