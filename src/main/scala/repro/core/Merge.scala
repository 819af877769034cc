package repro.core

/** The one convoy sweep of the repo: the DCM merge (Orakzai et al., MDM'16)
  * that Step 4 of Algorithm 1 (§4.4, Figure 5 / Table 3) applies to the
  * hop-windows' spanning convoys, that PCCD applies to each timestamp's
  * clusters and that DCM applies to its partitions' local convoys.
  *
  * Sweeps the parts left to right, keeping the *live* maximal convoys: those
  * that the next part may still extend. A live convoy `a` grows into every
  * convoy `b` of the next part that starts where `a` ends (the shared
  * benchmark point of two hop-windows) or one timestamp after it (adjacent
  * timestamps or partitions), as `(O(a) ∩ O(b), [ts(a), te(b)])` when the
  * intersection keeps ≥ m objects. A live convoy that no new live convoy
  * covers is closed. A shrunken offshoot coexists with its wider-object
  * ancestor (both can be maximal, e.g. `{a,b,c,d}[b0,b2]` and
  * `{a,b}[b0,b4]`), while a convoy that re-grows its lifespan with the same
  * objects replaces its shorter version.
  */
object Merge {

  /** The maximal convoys that `parts`, swept in order, merge into. The
    * convoys of one part all start after the previous part's convoys end,
    * or at that same timestamp, and end after them: `parts(i)` holds
    * hop-window i's spanning convoys (lifespan `[b_i, b_{i+1}]`), one
    * timestamp's clusters, or one partition's convoys. All three callers
    * also meet two preconditions:
    *   - (a) no convoy of a part covers another. PCCD's clusters and HWMT's
    *     spanning convoys are disjoint, and DCM's partitions are PCCD's
    *     maximal output.
    *   - (b) when a part's convoys start at the previous part's end, every
    *     part's convoys span at least 2 timestamps, so a live convoy starts
    *     before the next part does. Hop-windows span ⌊k/2⌋ + 1. Without it,
    *     the parts `[({1,2,3},[0,0])]` then `[({1,2,3,4},[0,2])]` would keep
    *     the covered `({1,2,3},[0,2])`.
    *
    * Each step is one [[ObjSets.meets]] join of the live convoys with the
    * part's, keeping the adjacent pairs. The grown convoys go through
    * `ConvoySets.maximal`; two tests on the join replace a scan of the new
    * live set:
    *   - A live convoy is covered by the new live set only if it grew whole
    *     into an adjacent convoy. By (b) no convoy of the part covers it. A
    *     grown convoy that covers it grew from a live convoy with its
    *     objects and no later start. That one ends no earlier either, as a
    *     part starts after every live convoy ends (timestamps, partitions)
    *     or where they all end (hop-windows). Since `live` is maximal, it is
    *     the convoy itself, grown whole.
    *   - A convoy of the part is covered only if some live convoy holds all
    *     of its objects. By (a) no convoy of the part covers it, so a grown
    *     convoy does, and the live convoy it grew from holds its objects;
    *     their join then kept all of them.
    *
    * Under these contracts the result is maximal as built, with no final
    * pass over it:
    *   - A convoy closed at step i is covered by no later live convoy. A
    *     later live convoy is either new, and so starts after the closed one
    *     ends, or grew from a live convoy one step earlier that has the same
    *     start and a superset of its objects. Following that chain back to
    *     step i gives a convoy of the new live set that covers the closed
    *     one, which the closing test ruled out.
    *   - Convoys closed at different steps end in disjoint ranges, ordered
    *     by step, so a later one is not covered by an earlier one.
    *   - Convoys closed at the same step come from one live set, which is
    *     maximal.
    */
  def mergeSpanning(parts: IndexedSeq[Vector[Convoy]], m: Int): Vector[Convoy] = {
    val closed = Vector.newBuilder[Convoy]
    var live = Vector.empty[Convoy]
    parts.foreach { cur =>
      val grewWhole = new Array[Boolean](live.length)
      val inside = new Array[Boolean](cur.length)
      val grown = Vector.newBuilder[Convoy]
      ObjSets.meets(live.map(_.objs), cur.map(_.objs), m).foreach { case (i, j, o) =>
        val (a, b) = (live(i), cur(j))
        if (b.ts == a.te || b.ts == a.te + 1L) {
          grewWhole(i) |= o.length == a.objs.length
          inside(j) |= o.length == b.objs.length
          grown += Convoy(o, a.ts, b.te)
        }
      }
      closed ++= live.indices.filterNot(grewWhole(_)).map(live)
      live = ConvoySets.maximal(grown.result()) ++ cur.indices.filterNot(inside(_)).map(cur)
    }
    closed.result() ++ live
  }
}
