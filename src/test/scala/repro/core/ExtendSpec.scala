package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable

import repro.TestData
import repro.core.ObjSets.ObjSet
import repro.store.MemStore

/** Right/left extension of maximal spanning convoys (Algorithm 3) and the
  * `KHalfHop.extend` stage built on it.
  */
class ExtendSpec extends AnyFunSuite {

  private def os(xs: Int*): ObjSet = ObjSets.of(xs)

  /** Dataset on a line: objects 0,1,2 together over [0,9]; object 3 joins
    * them only during [3,6]; everything scatters outside its span.
    */
  private def data = {
    val triples = Seq.newBuilder[(Int, Int, Double, Double)]
    for (t <- 0 to 9) {
      triples ++= TestData.line(t, 0 -> 0.0, 1 -> 1.0, 2 -> 2.0)
      if (t >= 3 && t <= 6) triples ++= TestData.line(t, 3 -> 3.0)
      else triples ++= TestData.line(t, 3 -> 500.0)
    }
    TestData.fromTriples(triples.result())
  }

  private def sel(store: MemStore): (Int, ObjSet) => Array[Pt] = (t, o) => store.select(t, o)

  test("extendRight grows an intact convoy to the dataset end") {
    val store = new MemStore(data)
    val acc = mutable.ArrayBuffer.empty[Convoy]
    Extend.extendOne(sel(store), Convoy(os(0, 1, 2), 0, 4), 9, forward = true, 1.5, 2, new PointCounter, acc)
    assert(acc.toSet == Set(Convoy(os(0, 1, 2), 0, 9)))
  }

  test("extendRight splits when a member drops out and keeps the closed parent") {
    val store = new MemStore(data)
    val acc = mutable.ArrayBuffer.empty[Convoy]
    // {0,1,2,3} spans [3,6]; at 7 object 3 leaves: parent closes, {0,1,2} continues.
    Extend.extendOne(sel(store), Convoy(os(0, 1, 2, 3), 3, 6), 9, forward = true, 1.5, 2, new PointCounter, acc)
    assert(acc.toSet == Set(Convoy(os(0, 1, 2, 3), 3, 6), Convoy(os(0, 1, 2), 3, 9)))
  }

  test("extendLeft mirrors extendRight") {
    val store = new MemStore(data)
    val acc = mutable.ArrayBuffer.empty[Convoy]
    Extend.extendOne(sel(store), Convoy(os(0, 1, 2, 3), 3, 6), 0, forward = false, 1.5, 2, new PointCounter, acc)
    assert(acc.toSet == Set(Convoy(os(0, 1, 2, 3), 3, 6), Convoy(os(0, 1, 2), 0, 6)))
  }

  test("extension stops at the dataset boundary") {
    val store = new MemStore(data)
    val acc = mutable.ArrayBuffer.empty[Convoy]
    Extend.extendOne(sel(store), Convoy(os(0, 1, 2), 7, 9), 9, forward = true, 1.5, 2, new PointCounter, acc)
    assert(acc.toSet == Set(Convoy(os(0, 1, 2), 7, 9)))
  }

  /** The pre-validation set that `KHalfHop.mine` validates. */
  private def preValidation(vm: Convoy*): Vector[Convoy] =
    KHalfHop.extend(sel(new MemStore(data)), 0, 9, vm.toVector, KHalfHop.Params(2, 8, 1.5), new PointCounter, new PhaseTimer)

  test("finish applies the k filter only after both passes") {
    // Spanning convoy of length 3 (< k=8) must survive because extension
    // grows it to [0,9] (length 10 >= 8).
    val ve = preValidation(Convoy(os(0, 1, 2), 4, 6))
    assert(ve.toSet == Set(Convoy(os(0, 1, 2), 0, 9)))
  }

  test("finish drops convoys that stay below k") {
    val ve = preValidation(Convoy(os(0, 1, 2, 3), 3, 6))
    // {0,1,2,3} caps at [3,6] (len 4 < 8): dropped. Offshoot {0,1,2} reaches [0,9].
    assert(ve.toSet == Set(Convoy(os(0, 1, 2), 0, 9)))
  }

  test("extension counts only candidate-object points (pruning intact)") {
    val store = new MemStore(data)
    val counter = new PointCounter
    Extend.extendOne(sel(store), Convoy(os(0, 1, 2), 0, 4), 9, forward = true, 1.5, 2, counter,
      mutable.ArrayBuffer.empty[Convoy])
    // 5 timestamps probed (5..9), 3 objects each.
    assert(counter.n == 15)
  }

  test("a convoy that dies immediately closes unchanged") {
    val triples = (0 to 3).flatMap(t => TestData.line(t, 0 -> 0.0, 1 -> 1.0)) ++
      TestData.line(4, 0 -> 0.0, 1 -> 300.0)
    val store = new MemStore(TestData.fromTriples(triples))
    val acc = mutable.ArrayBuffer.empty[Convoy]
    Extend.extendOne(sel(store), Convoy(os(0, 1), 0, 3), 4, forward = true, 1.5, 2, new PointCounter, acc)
    assert(acc.toSet == Set(Convoy(os(0, 1), 0, 3)))
  }
}
