package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.{Fixtures, SparkSpec}

/** ScalaCheck invariants of the pruning algorithms, exercised through the
  * driver-side interpreter.
  */
object PruningProps extends Properties("Pruning") {

  /** Random scored pair tables without duplicate pairs: Clean-Clean ids (a
    * handful of entities on each side) or Dirty ids (i < j, so an entity
    * can sit on both sides). The probabilities take 3–4 random values per
    * table, so ties occur within entities and across the table.
    */
  private[core] val withProbs: Gen[(LocalSweep.LocalPairs, Array[Double])] = for {
    n <- Gen.choose(1, 60)
    dirty <- Gen.oneOf(false, true)
    pairs <-
      if (dirty) Gen.listOfN(n, Gen.zip(Gen.choose(0L, 11L), Gen.choose(0L, 11L)))
        .map(_.collect { case (a, b) if a != b => (math.min(a, b), math.max(a, b)) })
      else Gen.listOfN(n, Gen.zip(Gen.choose(0L, 9L), Gen.choose(100L, 109L)))
    distinct = pairs.distinct
    values <- Gen.choose(3, 4).flatMap(Gen.listOfN(_, Gen.choose(0.0, 1.0)))
    probs <- Gen.listOfN(distinct.size, Gen.oneOf(values))
    cepK <- Gen.choose(0L, 40L)
    cnpK <- Gen.choose(1L, 6L)
  } yield {
    val rows = distinct.zip(probs).map { case ((i, j), p) => Fixtures.Scored(i, j, p) }
    (Fixtures.localPairs(rows, cepK, cnpK), probs.toArray)
  }

  private def retained(lp: LocalSweep.LocalPairs, probs: Array[Double], algo: String) =
    LocalSweep.prune(lp, probs, algo).toSet

  property("no algorithm retains an invalid pair") = Prop.forAll(withProbs) {
    case (lp, probs) =>
      (Pruning.weightBased ++ Pruning.cardinalityBased).forall { algo =>
        retained(lp, probs, algo).forall(probs(_) >= 0.5)
      }
  }

  property("every weight-based algorithm retains a subset of BCl") =
    Prop.forAll(withProbs) { case (lp, probs) =>
      val bcl = retained(lp, probs, "BCl")
      Seq("WEP", "WNP", "RWNP", "BLAST").forall(retained(lp, probs, _).subsetOf(bcl))
    }

  property("RWNP ⊆ WNP") = Prop.forAll(withProbs) { case (lp, probs) =>
    retained(lp, probs, "RWNP").subsetOf(retained(lp, probs, "WNP"))
  }

  property("RCNP ⊆ CNP ⊆ BCl") = Prop.forAll(withProbs) { case (lp, probs) =>
    val cnp = retained(lp, probs, "CNP")
    retained(lp, probs, "RCNP").subsetOf(cnp) &&
      cnp.subsetOf(retained(lp, probs, "BCl"))
  }

  property("|CEP| = min(K, #valid)") = Prop.forAll(withProbs) { case (lp, probs) =>
    val nValid = probs.count(_ >= 0.5)
    retained(lp, probs, "CEP").size == math.min(lp.cepK, nValid.toLong)
  }

  property("WNP keeps each node's own maximum") = Prop.forAll(withProbs) {
    case (lp, probs) =>
      // For every entity with at least one valid pair, its top valid pair
      // meets that entity's average, so WNP must retain it.
      val wnp = retained(lp, probs, "WNP")
      val valid = lp.i.indices.filter(probs(_) >= 0.5)
      val byEntity = valid.flatMap(p => Seq(lp.i(p) -> p, lp.j(p) -> p))
        .groupBy(_._1).view.mapValues(_.map(_._2))
      byEntity.forall { case (_, ps) => ps.exists(wnp.contains) }
  }

  property("BLAST with r <= 0.25 keeps every valid pair") =
    Prop.forAll(withProbs) { case (lp, probs) =>
      // max_i + max_j <= 2, so r*(sum) <= 0.5 <= p for every valid pair.
      retained(lp, probs, "BCl") ==
        LocalSweep.prune(lp, probs, Pruning.Blast(0.25)).toSet
    }

  property("monotone in k: CNP(k) ⊆ CNP(k+1)") = Prop.forAll(withProbs) {
    case (lp, probs) =>
      val small = LocalSweep.prune(lp, probs, "CNP").toSet
      val bigger = LocalSweep.prune(lp.copy(cnpK = lp.cnpK + 1), probs, "CNP").toSet
      small.subsetOf(bigger)
  }

  property("WEP retains the globally top-weighted valid pair") =
    Prop.forAll(withProbs) { case (lp, probs) =>
      val valid = lp.i.indices.filter(probs(_) >= 0.5)
      valid.isEmpty || {
        val top = valid.maxBy(probs(_))
        retained(lp, probs, "WEP").contains(top)
      }
    }
}

/** The DataFrame and driver interpreters of a [[Pruning.Rule]] agree on
  * [[PruningProps]]' tables. Each table costs eight Spark queries, so this
  * property runs on fewer tables than the driver-only ones, and does not
  * shrink a failing table (each shrink step would cost eight more).
  */
object PruningPathProps extends Properties("Pruning paths") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(40)

  property("the DataFrame and driver interpreters keep the same pairs") =
    Prop.forAllNoShrink(PruningProps.withProbs) { case (lp, probs) =>
      val spark = SparkSpec.shared
      import spark.implicits._
      val scored = lp.i.indices.map(r => Fixtures.Scored(lp.i(r), lp.j(r), probs(r))).toDF()
      Prop.all(Pruning.rules.toSeq.map { case (algo, rule) =>
        val df = Fixtures.pairSet(Pruning(rule, scored, lp.cepK, lp.cnpK))
        val local = LocalSweep.prune(lp, probs, rule).map(p => (lp.i(p), lp.j(p))).toSet
        (df == local) :| s"$algo: DataFrame path kept $df, driver path kept $local"
      }: _*)
    }
}
