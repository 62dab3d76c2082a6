package repro.core

import org.apache.spark.sql.Row
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** Property-based invariants (ScalaCheck generators over 100 seeds;
  * only scalatest + scalacheck are available offline, so the sampling
  * loop replaces the scalatestplus integration).
  */
class PropertiesSpec extends AnyFunSuite {

  private val params = Gen.Parameters.default

  private def sample[A](g: Gen[A], seed: Long): A = g.pureApply(params, Seed(seed))

  private val candGen: Gen[Row] = for {
    v <- Gen.oneOf("a", "b", "c", "d")
    op <- Gen.oneOf("=", "<", ">")
    n <- Gen.choose(1L, 20L)
  } yield Row(v, op, 0.0, "R", n)

  private val candsGen: Gen[Seq[Row]] = Gen.listOfN(4, candGen)

  private def forSeeds(f: Long => Unit): Unit = (1L to 100L).foreach(f)

  test("merge: probabilities always sum to 1") {
    forSeeds { s =>
      val m = ProbData.mergeCandSeqs(sample(candsGen, s), sample(candsGen, s + 1000))
      assert(math.abs(m.map(_.getDouble(2)).sum - 1.0) < 1e-9, s"seed $s")
    }
  }

  test("merge: commutative (Lemma 4)") {
    forSeeds { s =>
      val a = sample(candsGen, s); val b = sample(candsGen, s + 1000)
      assert(ProbData.mergeCandSeqs(a, b) == ProbData.mergeCandSeqs(b, a), s"seed $s")
    }
  }

  test("merge: associative on supports") {
    forSeeds { s =>
      val a = sample(candsGen, s); val b = sample(candsGen, s + 1000)
      val c = sample(candsGen, s + 2000)
      def key(rs: Seq[Row]) = rs.map(r => (r.getString(0), r.getString(1), r.getLong(4)))
      val l = ProbData.mergeCandSeqs(ProbData.mergeCandSeqs(a, b), c)
      val r = ProbData.mergeCandSeqs(a, ProbData.mergeCandSeqs(b, c))
      assert(key(l) == key(r), s"seed $s")
    }
  }

  test("merge: total support is preserved") {
    forSeeds { s =>
      val a = sample(candsGen, s); val b = sample(candsGen, s + 1000)
      val m = ProbData.mergeCandSeqs(a, b)
      assert(m.map(_.getLong(4)).sum == (a ++ b).map(_.getLong(4)).sum, s"seed $s")
    }
  }

  test("probExtraViolation stays within [0, 1] and is monotone in violations") {
    val g = for {
      n <- Gen.choose(2L, 200L)
      v <- Gen.choose(0L, n)
      k <- Gen.choose(0L, n)
    } yield (n, v, k)
    forSeeds { s =>
      val (n, v, k) = sample(g, s)
      val p = RelaxationEstimates.probExtraViolation(n, v, k)
      assert(p >= 0.0 && p <= 1.0, s"seed $s")
      if (v + 1 <= n)
        assert(RelaxationEstimates.probExtraViolation(n, v + 1, k) >= p - 1e-12, s"seed $s")
    }
  }

  test("atomProb is a probability and respects complementarity") {
    val g = Gen.listOfN(4, Gen.choose(0.0, 10.0))
    forSeeds { s =>
      val xs = sample(g, s)
      val (a, b) = (math.min(xs(0), xs(1)), math.max(xs(0), xs(1)) + 0.001)
      val (c, d) = (math.min(xs(2), xs(3)), math.max(xs(2), xs(3)) + 0.001)
      val gt = ThetaJoin.atomProb(">", a, b, c, d)
      val lt = ThetaJoin.atomProb("<", a, b, c, d)
      assert(gt >= 0 && gt <= 1, s"seed $s")
      assert(math.abs(gt + lt - 1.0) < 1e-9, s"seed $s")
    }
  }

  test("atomProb: disjoint intervals give certainty") {
    assert(ThetaJoin.atomProb(">", 5, 6, 1, 2) == 1.0)
    assert(ThetaJoin.atomProb(">", 1, 2, 5, 6) == 0.0)
    assert(ThetaJoin.atomProb("<", 1, 2, 5, 6) == 1.0)
  }
}
