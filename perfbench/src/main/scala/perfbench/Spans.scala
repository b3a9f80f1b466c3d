package perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable.ArrayBuffer

/** A timed interval at a layer boundary. Spans of one operation share `op`;
  * `parent` is the id of the span that caused this one (-1 for a root).
  */
final case class Span(op: Long, id: Int, parent: Int, layer: String, name: String,
                      startNs: Long, endNs: Long)

/** In-memory span log of the traced run, written out when the run ends.
  * Only the client thread adds spans.
  */
final class Spans {
  private val buf = ArrayBuffer.empty[Span]

  /** Operation and parent span that new spans attach to. */
  var op: Long = 0L
  var parent: Int = -1

  def add(layer: String, name: String, startNs: Long, endNs: Long,
          parentId: Int = parent): Int = {
    val id = buf.size
    buf += Span(op, id, parentId, layer, name, startNs, endNs)
    id
  }

  /** Sets the end of span `id`, added before its children. */
  def close(id: Int, endNs: Long): Unit = buf(id) = buf(id).copy(endNs = endNs)

  /** Runs `body`, logs it as a span and returns its result and duration in µs. */
  def time[A](layer: String, name: String)(body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    val t1 = System.nanoTime()
    add(layer, name, t0, t1)
    (a, (t1 - t0) / 1e3)
  }

  def size: Int = buf.size

  /** CSV: op,id,parent,layer,name,start_ns,end_ns. */
  def write(file: File): Unit = {
    val w = new PrintWriter(file, "UTF-8")
    try {
      w.println("op,id,parent,layer,name,start_ns,end_ns")
      buf.foreach(s => w.println(s"${s.op},${s.id},${s.parent},${s.layer},${s.name},${s.startNs},${s.endNs}"))
    } finally w.close()
  }
}
