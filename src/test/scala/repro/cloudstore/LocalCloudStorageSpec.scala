package repro.cloudstore

import org.scalatest.funsuite.AnyFunSuite
import org.scalactic.Tolerance._
import org.scalacheck.Gen
import scala.jdk.CollectionConverters._

import repro.GenChecks

class LocalCloudStorageSpec extends AnyFunSuite with GenChecks {

  private def fresh() = new LocalCloudStorage(NetworkModel())

  test("put then get returns identical bytes") {
    val s = fresh()
    forAllG(Gen.listOf(Gen.choose(Byte.MinValue, Byte.MaxValue)), trials = 25) { bs =>
      val bytes = bs.toArray
      s.put("b", bytes)
      assert(s.get("b", new FetchLedger).toSeq == bytes.toSeq)
    }
  }

  test("get of a missing blob fails with its name") {
    val e = intercept[IllegalArgumentException](fresh().get("nope", new FetchLedger))
    assert(e.getMessage.contains("nope"))
  }

  test("size and list reflect puts") {
    val s = fresh()
    s.put("a", Array[Byte](1, 2, 3))
    s.put("b", new Array[Byte](10))
    assert(s.size("a") == 3 && s.size("b") == 10)
    assert(s.list().toSet == Set("a", "b"))
    assert(s.totalBytes == 13)
  }

  test("getRange returns exactly the requested slice") {
    val s = fresh()
    val data = (0 until 100).map(_.toByte).toArray
    s.put("blob", data)
    forAllG(for {
      off <- Gen.choose(0, 99)
      len <- Gen.choose(0, 100 - off)
    } yield (off, len), trials = 50) { case (off, len) =>
      val got = s.getRange(RangeReq("blob", off.toLong, len), new FetchLedger)
      assert(got.toSeq == data.slice(off, off + len).toSeq)
    }
  }

  test("out-of-bounds range is rejected") {
    val s = fresh()
    s.put("blob", new Array[Byte](10))
    intercept[IllegalArgumentException](
      s.getRange(RangeReq("blob", 5, 6), new FetchLedger))
    intercept[IllegalArgumentException](
      s.getRange(RangeReq("blob", -1, 2), new FetchLedger))
  }

  test("sequential reads accumulate one ledger step each") {
    val s = fresh()
    s.put("blob", new Array[Byte](1000))
    val ledger = new FetchLedger
    s.getRange(RangeReq("blob", 0, 100), ledger)
    s.getRange(RangeReq("blob", 100, 100), ledger)
    s.get("blob", ledger)
    val st = ledger.stats
    assert(st.roundTripSteps == 3)
    assert(st.waitMs === 150.0 +- 1e-9)
    assert(st.bytes == 1200)
  }

  test("get and getRange each record one step priced as a batch of their one range") {
    val straggly = NetworkModel(tailProbability = 0.3)
    val s = new LocalCloudStorage(straggly)
    s.put("blob", new Array[Byte](1000))
    val range = RangeReq("blob", 100, 200)
    val l1 = new FetchLedger
    s.getRange(range, l1)
    assert(l1.stats == straggly.batch(Vector(range), 1)._1)
    val l2 = new FetchLedger
    s.get("blob", l2)
    assert(l2.stats == straggly.batch(Vector(RangeReq("blob", 0, 1000)), 1)._1)
  }

  test("a parallel batch is ONE ledger step and pays one base latency") {
    val s = fresh()
    s.put("blob", new Array[Byte](1000))
    val ledger = new FetchLedger
    val out = s.getRangesParallel((0 until 10).map(i => RangeReq("blob", i * 100L, 100)), ledger)
    assert(out.size == 10)
    assert(out.forall(_.length == 100))
    val st = ledger.stats
    assert(st.roundTripSteps == 1)
    assert(st.waitMs === 50.0 +- 1e-9)
    assert(st.bytes == 1000)
  }

  test("parallel batch preserves request order in results") {
    // With stragglers the winners arrive in completion order, not request order.
    val s = new LocalCloudStorage(NetworkModel(tailProbability = 0.3))
    s.put("blob", (0 until 200).map(_.toByte).toArray)
    val offsets = Seq(100, 3, 77, 150, 12, 199, 64, 5, 31, 120)
    val reqs = offsets.map(o => RangeReq("blob", o.toLong, 1))
    val arrival = s.getRangesKofN(reqs, reqs.size, new FetchLedger).map(_._1)
    assert(arrival.sorted == reqs.indices && arrival != reqs.indices, arrival)
    val out = s.getRangesParallel(reqs, new FetchLedger)
    assert(out.map(_.head) == offsets.map(_.toByte))
  }

  test("empty parallel batch is free") {
    val ledger = new FetchLedger
    assert(fresh().getRangesParallel(Nil, ledger).isEmpty)
    assert(ledger.stats == FetchStats.zero)
  }

  test("k-of-n returns k results tagged with their request indices") {
    val s = fresh()
    s.put("blob", (0 until 100).map(_.toByte).toArray)
    val reqs = (0 until 6).map(i => RangeReq("blob", i.toLong * 10, 1))
    val ledger = new FetchLedger
    val out = s.getRangesKofN(reqs, 4, ledger)
    assert(out.size == 4)
    out.foreach { case (idx, bytes) => assert(bytes.head == (idx * 10).toByte) }
    assert(ledger.stats.roundTripSteps == 1)
  }

  test("getNoCost does not touch any ledger") {
    val s = fresh()
    s.put("a", Array[Byte](9))
    assert(s.getNoCost("a").head == 9)
  }

  test("registry: register, resolve, unregister") {
    val s = fresh()
    CloudStorage.register("spec-bucket", s)
    assert(CloudStorage.named("spec-bucket") eq s)
    CloudStorage.unregister("spec-bucket")
    intercept[IllegalArgumentException](CloudStorage.named("spec-bucket"))
  }

  test("setModel switches the accounted region without touching data") {
    val s = fresh()
    s.put("a", new Array[Byte](100))
    val l1 = new FetchLedger
    s.get("a", l1)
    s.setModel(NetworkModel(region = Region.Singapore))
    val l2 = new FetchLedger
    s.get("a", l2)
    assert(l2.stats.waitMs === 7.5 * l1.stats.waitMs +- 1e-6)
  }

  test("concurrent callers on one store all see correct bytes") {
    val s = fresh()
    val data = (0 until 10000).map(_.toByte).toArray
    s.put("big", data)
    // 8 callers at once, each issuing batches of its own ranges.
    val errors = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]
    val callers = (0 until 8).map { c =>
      val t = new Thread(() => for (round <- 0 until 5) {
        val reqs = (0 until 500).map(i => RangeReq("big", ((i * 7 + c * 31 + round) % 499).toLong * 20, 20))
        val out = s.getRangesParallel(reqs, new FetchLedger)
        reqs.zip(out).foreach { case (r, b) =>
          assert(b.toSeq == data.slice(r.offset.toInt, r.offset.toInt + r.length).toSeq)
        }
      })
      t.setUncaughtExceptionHandler((_, e) => errors.add(e))
      t.start(); t
    }
    callers.foreach(_.join())
    assert(errors.isEmpty, errors.toString)
  }

  test("a 1000-range shuffled batch keeps request order") {
    val data = (0 until 4000).map(i => (i * 31).toByte).toArray
    val offsets = new scala.util.Random(5).shuffle((0 until 1000).toVector).map(_.toLong * 4)
    val s = fresh()
    s.put("blob", data)
    val out = s.getRangesParallel(offsets.map(o => RangeReq("blob", o, 4)), new FetchLedger)
    assert(out.map(_.toSeq) == offsets.map(o => data.slice(o.toInt, o.toInt + 4).toSeq))
  }

  test("a bad range fails its batch; the next batch still reads") {
    val s = fresh()
    val data = (0 until 1000).map(_.toByte).toArray
    s.put("blob", data)
    val good = (0 until 100).map(i => RangeReq("blob", i * 10L, 10))
    val e = intercept[IllegalArgumentException](
      s.getRangesParallel(good.updated(57, RangeReq("blob", 995, 10)), new FetchLedger))
    assert(e.getMessage.contains("range out of bounds"))
    val out = s.getRangesParallel(good, new FetchLedger)
    good.zip(out).foreach { case (r, b) => assert(b.toSeq == data.slice(r.offset.toInt, r.offset.toInt + 10).toSeq) }
  }

  test("a batch starts no thread") {
    val s = fresh()
    s.put("blob", new Array[Byte](1000))
    val out = s.getRangesParallel((0 until 100).map(i => RangeReq("blob", i * 10L, 10)), new FetchLedger)
    assert(out.size == 100)
    val download = Thread.getAllStackTraces.keySet.asScala.filter(t => t.isAlive && t.getName.startsWith("cloud-download-"))
    assert(download.isEmpty, download.map(_.getName))
  }

  test("offsets past Int.MaxValue and negative lengths never wrap to a valid slice") {
    val s = fresh()
    s.put("blob", new Array[Byte](16))
    val bad = Seq(RangeReq("blob", 1L << 31, 4), RangeReq("blob", 1L << 32, 4),
                  RangeReq("blob", Long.MaxValue, 1), RangeReq("blob", 8, -2))
    bad.foreach { r =>
      val single = intercept[IllegalArgumentException](s.getRange(r, new FetchLedger))
      assert(single.getMessage.contains("range out of bounds"), r)
      val batch = intercept[IllegalArgumentException](
        s.getRangesParallel(Seq(RangeReq("blob", 0, 4), r), new FetchLedger))
      assert(batch.getMessage.contains("range out of bounds"), r)
    }
  }

  test("FetchStats mean and percentile helpers") {
    val xs = (1 to 100).map(i => FetchStats(1, i.toDouble, 0.0, i.toLong))
    val m = FetchStats.mean(xs)
    assert(m.waitMs === 50.5 +- 1e-9)
    assert(FetchStats.percentileMs(xs, 0.99) === 99.0 +- 1.0)
    assert(FetchStats.percentileMs(xs, 1.0) == 100.0)
    intercept[IllegalArgumentException](FetchStats.mean(Nil))
  }

  test("FetchStats addition") {
    val a = FetchStats(1, 2.0, 3.0, 4L)
    val b = FetchStats(5, 6.0, 7.0, 8L)
    assert(a + b == FetchStats(6, 8.0, 10.0, 12L))
    assert((a + b).totalMs === 18.0 +- 1e-9)
  }
}
