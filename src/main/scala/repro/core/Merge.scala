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
    * timestamp's clusters, or one partition's convoys.
    *
    * Under that contract the result is maximal as built, with no final
    * pass over it:
    *   - A convoy closed at step i is covered by no later live convoy. A
    *     later live convoy is either new, and so starts after the closed one
    *     ends, or grew from a live convoy one step earlier that has the same
    *     start and a superset of its objects. Following that chain back to
    *     step i gives a convoy of `next` that covers the closed one, which
    *     the closing test ruled out.
    *   - Convoys closed at different steps end in disjoint ranges, ordered
    *     by step, so a later one is not covered by an earlier one.
    *   - Convoys closed at the same step come from one live set, which is
    *     maximal.
    */
  def mergeSpanning(parts: IndexedSeq[Vector[Convoy]], m: Int): Vector[Convoy] = {
    val closed = Vector.newBuilder[Convoy]
    var live = Vector.empty[Convoy]
    parts.foreach { cur =>
      val grown = for {
        a <- live
        b <- cur if b.ts == a.te || b.ts == a.te + 1L
        o = ObjSets.intersect(a.objs, b.objs) if o.length >= m
      } yield Convoy(o, a.ts, b.te)
      val next = ConvoySets.maximal(grown ++ cur)
      closed ++= live.filterNot(a => next.exists(a.isSubOf))
      live = next
    }
    closed.result() ++ live
  }
}
