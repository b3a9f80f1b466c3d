package repro.core

import org.scalatest.funsuite.AnyFunSuite

class IoUConfigSpec extends AnyFunSuite {

  test("paper defaults: B=1e5, F0=1, 1% common bins, delta=1e-6") {
    val c = IoUConfig()
    assert(c.bins == 100000)
    assert(c.f0 == 1.0)
    assert(c.commonBins == 1000)
    assert(c.iouBins == 99000)
    assert(IoUConfig.CommonWordFraction == 0.01)
    assert(DocFetcher.TopKDelta == 1e-6)
    assert(c.extraLayers == 0)
  }

  test("common bins follow the configured fraction and never eat everything") {
    assert(IoUConfig(bins = 5000).commonBins == 50)
    assert(IoUConfig(bins = 5000).iouBins == 4950)
    assert(IoUConfig(bins = 99).commonBins == 0)
    assert(IoUConfig(bins = 99).iouBins == 99)
  }

  test("seed sequence is deterministic, distinct, and sized to the layer count") {
    val c = IoUConfig()
    val s = c.seeds(8)
    assert(s.length == 8)
    assert(s.distinct.length == 8)
    assert(s.toSeq == c.seeds(8).toSeq)
    assert(c.seeds(3).toSeq == s.take(3).toSeq) // prefix-stable
  }

  test("validation rejects nonsense configurations") {
    intercept[IllegalArgumentException](IoUConfig(bins = 1))
    intercept[IllegalArgumentException](IoUConfig(f0 = -1))
    intercept[IllegalArgumentException](IoUConfig(layersOverride = Some(0)))
    intercept[IllegalArgumentException](IoUConfig(extraLayers = -1))
    intercept[IllegalArgumentException](IoUConfig(blockTargetBytes = 10))
  }

  test("hashing floor-mods negative murmur values into range") {
    (0 until 1000).foreach { i =>
      val b = Hashing.bin(s"word$i", seed = -12345, binsPerLayer = 7)
      assert(b >= 0 && b < 7)
    }
  }
}
