// Batched update processing. A document's pair deltas, and an epoch's
// retirements, arrive in bursts; feeding them to Process one pair at a time
// pays an index snapshot, exploration setup and event round trip per pair.
// ProcessBatch applies every delta to the graph up front, repairs the index
// in one pass, and runs one deduplicated discovery phase over the coalesced
// per-pair net deltas.
//
// A batch is ONE logical tick: the sink observes the net output-dense
// transitions across it, in canonical (kind, set-key) order, followed by one
// EndUpdate. The final index, scores and output-dense set are those of one
// Process call per update (pinned by internal/stream's batch conformance
// suite against the sequential engine and brute.EnumerateAll). A threshold
// unit (threshold.go) is a batch unit too: it runs the same driver, runUnit,
// with a threshold move.
package core

import (
	"cmp"
	"slices"

	"dyndens/internal/density"
	"dyndens/internal/index"
	"dyndens/internal/vset"
)

// packPair encodes the unordered pair {a, b} as one comparable word with the
// smaller vertex in the high half, so sorting packed keys yields the canonical
// (min, max) lexicographic pair order.
func packPair(a, b Vertex) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func unpackPair(k uint64) (a, b Vertex) {
	return Vertex(k >> 32), Vertex(uint32(k))
}

// pairDelta is one pair of a batch with its applied weight change.
type pairDelta struct {
	key   uint64 // packPair
	delta float64
}

func (p pairDelta) compareKey(k uint64) int { return cmp.Compare(p.key, k) }

// stagedEvent is one per-batch candidate transition awaiting netting.
type stagedEvent struct {
	kind  EventKind
	set   vset.Set // private copy in a free-list buffer; handed to the sink at flush
	score float64
}

// ProcessBatch applies a batch of edge-weight updates as one logical tick and
// pushes the net changes to the output-dense subgraph set to the sink. An
// empty batch is a no-op tick: it emits nothing but still advances a
// boundary-aware sink's update sequence. Duplicate pairs within the batch
// coalesce to their net applied delta. The threshold schedule does not move.
func (e *Engine) ProcessBatch(updates []Update) { e.runUnit(updates, 0) }

// runUnit is the bracket every batch unit runs: a plain batch (scale 0) or a
// threshold unit carrying its cumulative decay scale λ. A fold comes first; then the deltas land under the OLD threshold
// (a retiring pair's weight change is netted before the schedule moves), the
// threshold walk repairs the index, and the emit scale switches to the new λ
// only after all staged events are known. A rebuild (a lowered threshold)
// replaces repair, walk and discovery. The net events reach the sink at the
// end, followed by one EndUpdate.
func (e *Engine) runUnit(updates []Update, scale float64) {
	e.stats.Updates += uint64(len(updates))
	e.stats.Batches++
	if scale != 0 {
		e.stats.ThresholdTicks++
	}
	e.stageBatchDeltas(updates)
	if len(e.batchNet) == 0 && scale == 0 {
		e.endUpdate() // no-op tick: boundary only
		return
	}
	e.cloneSets = SinkRetainsSets(e.sink)
	e.batching = true
	e.ix.BeginUpdate()
	m := e.emitScale
	if scale != 0 {
		var k int
		if m, k = density.Fold(scale); k != 0 {
			e.fold(k)
		}
	}
	// The schedule in force is always base's at the emit scale, so a plain
	// batch finds newT equal to it and moves nothing.
	newT := e.base.T / m
	repair := len(e.batchNet) > 0 && newT >= e.th.T // a decrease rebuilds instead
	if repair {
		e.prepareBatchDirty()
		e.batchRepair()
	}
	if newT != e.th.T {
		// Algorithm 3's walk (lines 2–4) for a raise, a rebuild for a
		// decrease; the old schedule becomes the spare.
		oldTh := e.th
		e.scheduleAt(e.spareTh, m)
		e.th, e.spareTh = e.spareTh, oldTh
		if newT > oldTh.T {
			e.increaseThreshold(oldTh)
		} else {
			e.rebuild(oldTh)
		}
	}
	if repair {
		e.batchDiscover()
	}
	e.batching = false
	e.emitScale = m
	e.noteIndexSize()
	e.flushBatchEvents()
	e.endUpdate()
}

// stageBatchDeltas applies every delta of a batch to the graph up front and
// coalesces the net applied change per pair into batchNet, sorted by pair key
// — the canonical phase order. Applying in stream order keeps the clamp-at-zero
// path exact: the per-update applied deltas telescope to final − initial. The
// applied deltas are staged in stream order, stable-sorted by pair and summed
// run by run (so each pair's deltas add up in stream order), pairs netting to
// zero dropped in the same pass: a tick costs O(batch log batch) whatever the
// largest batch before it was.
func (e *Engine) stageBatchDeltas(updates []Update) {
	net := e.batchNet[:0]
	for _, u := range updates {
		if u.A == u.B || u.Delta == 0 {
			continue
		}
		before, after := e.g.Apply(u)
		applied := after - before
		if applied == 0 {
			continue
		}
		if applied < 0 {
			e.stats.NegativeUpdates++
		} else {
			e.stats.PositiveUpdates++
		}
		net = append(net, pairDelta{packPair(u.A, u.B), applied})
	}
	slices.SortStableFunc(net, func(x, y pairDelta) int { return x.compareKey(y.key) })
	w := 0
	for i := 0; i < len(net); {
		sum := net[i]
		for i++; i < len(net) && net[i].key == sum.key; i++ {
			sum.delta += net[i].delta
		}
		if sum.delta != 0 {
			net[w] = sum
			w++
		}
	}
	e.batchNet = net[:w]
}

// prepareBatchDirty derives the sorted distinct dirty-endpoint set batchRepair
// and batchDeltaOf rely on, and its subset batchRaised.
func (e *Engine) prepareBatchDirty() {
	e.batchDirty, e.batchRaised = e.batchDirty[:0], e.batchRaised[:0]
	for _, p := range e.batchNet {
		a, b := unpackPair(p.key)
		e.batchDirty = append(e.batchDirty, a, b)
		if p.delta > 0 {
			e.batchRaised = append(e.batchRaised, a, b)
		}
	}
	slices.Sort(e.batchDirty)
	e.batchDirty = slices.Compact(e.batchDirty)
	slices.Sort(e.batchRaised)
	e.batchRaised = slices.Compact(e.batchRaised)
}

// batchDeltaOf returns the summed net applied delta of the batch's pairs that
// lie inside c — exactly the amount c's score changed over the batch. The
// dirty-vertex intersection rejects untouched subgraphs before any pair
// lookup; it binary-searches the dirty set per member of c (|c| ≤ Nmax, so
// O(Nmax·log dirty)) rather than merge-scanning, because a broad decay burst
// makes the dirty set approach the whole vertex universe and this runs once
// per indexed subgraph per batch plus once per exploration frame.
func (e *Engine) batchDeltaOf(c vset.Set) float64 {
	e.dirtyInC = e.dirtyInC[:0]
	for _, v := range c {
		if vset.Set(e.batchDirty).Contains(v) {
			e.dirtyInC = append(e.dirtyInC, v)
		}
	}
	if len(e.dirtyInC) < 2 {
		return 0
	}
	var total float64
	for x := 0; x < len(e.dirtyInC); x++ {
		for y := x + 1; y < len(e.dirtyInC); y++ {
			k := packPair(e.dirtyInC[x], e.dirtyInC[y])
			if i, ok := slices.BinarySearchFunc(e.batchNet, k, pairDelta.compareKey); ok {
				total += e.batchNet[i].delta
			}
		}
	}
	return total
}

// batchRepair is the batch counterpart of Algorithm 1's bookkeeping, run once
// over a whole-index snapshot instead of once per pair: every indexed dense
// subgraph touched by the batch has its stored score moved straight to its
// final value, output-threshold crossings are staged, ImplicitTooDense
// families whose base is no longer too-dense are dropped, and subgraphs that
// are no longer dense are evicted. Because eviction tests the FINAL score, a
// subgraph evicted here can never be re-admitted by batchDiscover — which is
// what keeps the per-batch event stream free of became/ceased flapping.
func (e *Engine) batchRepair() {
	// Snapshot the affected dense nodes. A subgraph's score changes only if
	// it holds both endpoints of a changed pair, and its certificate breaks
	// only if it holds an endpoint of a raised one, so:
	//   - a batch whose pairs all fell (a threshold unit's retirements) walks,
	//     per pair, the subgraphs holding both endpoints — Algorithm 1's
	//     negative walk — unless it has more pairs than the index has dense
	//     subgraphs, where one whole-tree walk costs less;
	//   - a narrow batch with a raised pair (one document's pairs) walks the
	//     inverted lists of its few dirty vertices, the lists sequential
	//     processing walks;
	//   - a broad one walks the whole tree.
	// The per-pair and per-vertex routes reach a node once per pair or dirty
	// vertex it holds, so those snapshots are deduplicated through the
	// index's per-update annotation epoch (nothing else reads annotations on
	// pre-existing nodes during a batch). Nodes are repaired independently of
	// one another, so the route changes nothing but the cost.
	e.affectedBuf = reuseSnapshot(e.affectedBuf)
	var nodes []*index.Node
	dedup := true
	switch {
	case len(e.batchRaised) == 0 && len(e.batchNet) <= e.ix.Len() && !e.wholeIndexRepair:
		for _, p := range e.batchNet {
			a, b := unpackPair(p.key)
			e.affectedBuf = e.ix.AppendDenseContainingBoth(e.affectedBuf, a, b)
		}
		nodes = e.affectedBuf
	case len(e.batchRaised) > 0 && len(e.batchDirty) <= 8:
		for _, v := range e.batchDirty {
			e.affectedBuf = e.ix.AppendDenseContaining(e.affectedBuf, v)
		}
		nodes = e.affectedBuf
	default:
		nodes, dedup = e.denseSnapshot(), false
	}
	setBuf := e.getSetBuf()
	for _, node := range nodes {
		if !node.Dense() {
			continue // evicted via an earlier node's pruning cascade
		}
		if dedup {
			if _, seen := e.ix.Annotation(node); seen {
				continue // already repaired via another dirty vertex's list
			}
			e.ix.Annotate(node, 0)
		}
		c := node.SetInto(setBuf)
		setBuf = c
		// Every delta is in the graph already: a pair the batch raised may have
		// pushed a vertex's weight into c past node's reach certificate with no
		// cheapExplore in between, so drop it before anything explores around c.
		for _, v := range c {
			if vset.Set(e.batchRaised).Contains(v) {
				node.DropReach()
				break
			}
		}
		delta := e.batchDeltaOf(c)
		if delta == 0 {
			continue
		}
		n := c.Len()
		oldScore := node.Score()
		newScore := e.ix.AddScore(node, delta)
		if star := e.ix.StarOf(node); star != nil {
			e.ix.SetScore(star, newScore)
		}
		wasOutput := e.th.IsOutputDense(oldScore, n)
		isOutput := e.th.IsOutputDense(newScore, n)
		if wasOutput && !isOutput {
			e.emit(CeasedOutputDense, c, newScore)
		} else if !wasOutput && isOutput {
			e.emit(BecameOutputDense, c, newScore)
		}
		if e.ix.HasStar(node) && !e.th.IsTooDense(newScore, n) {
			e.ix.RemoveStar(node)
		}
		if !e.th.IsDense(newScore, n) {
			e.evict(node)
		}
	}
	e.putSetBuf(setBuf)
}

// batchDiscover runs Algorithm 1's discovery work once per coalesced
// positive pair, in canonical pair order, against the final graph. Scores are
// already final after batchRepair, so — unlike processPositive — the
// stable-dense path performs no bump: it only maintains ImplicitTooDense
// families that the batch pushed over the too-dense threshold and explores.
// Subgraphs admitted for an earlier pair are part of later pairs' snapshots,
// which is what makes the per-pair passes compose into one complete pass.
func (e *Engine) batchDiscover() {
	for _, p := range e.batchNet {
		delta := p.delta
		if delta <= 0 {
			continue // negative pairs are fully handled by batchRepair
		}
		a, b := unpackPair(p.key)
		e.stats.batchPairs++
		e.a, e.b, e.delta = a, b, delta
		e.maxIter = e.th.Iterations(delta)

		split := e.snapshotPositive()

		e.pairBuf[0], e.pairBuf[1] = a, b // a < b by canonical pair order
		pair := vset.Set(e.pairBuf[:])
		if e.ix.LookupDense(pair) == nil {
			if w := e.g.Weight(a, b); e.th.IsDense(w, 2) {
				e.admit(pair, w, 1)
			}
		}

		setBuf := e.getSetBuf()
		for i, node := range e.affectedBuf {
			if !node.Dense() {
				continue
			}
			if partner := e.partnerBuf[i]; partner != node {
				e.cheapExplore(node, partner, i >= split) // a < b
				continue
			}
			c := node.SetInto(setBuf)
			setBuf = c
			score := node.Score()
			if e.maintainStar(node, score, c.Len()) {
				e.starEdgeScan(c, score, 2)
			}
			e.explore(node, c, 1)
		}
		e.putSetBuf(setBuf)

		e.processStars()
	}
}

// stageBatchEvent records one output-dense transition of the batch in flight,
// in discovery order; flushBatchEvents nets them per set.
//
// The set is copied out of engine scratch into a buffer from the set free
// list — it must survive until the flush at the batch boundary, while the
// scratch it was built in is reused by the rest of the batch. The buffer is
// recycled at flush unless the sink retains sets, so a churny batch feeding
// a non-retaining sink settles into the same allocation-free steady state as
// sequential Process.
func (e *Engine) stageBatchEvent(kind EventKind, c vset.Set, score float64) {
	e.staged = append(e.staged, stagedEvent{
		kind:  kind,
		set:   vset.Set(append(e.getSetBuf(), c...)),
		score: score,
	})
}

// flushBatchEvents nets the staged transitions against the pre-batch state
// and emits the survivors to the sink in canonical (kind, key)
// order. Netting is the stageBatchDeltas shape: a stable sort by set brings
// each set's transitions together in discovery order; the first one fixes the
// set's pre-batch status, the last one its kind, score and final status, and a
// set that ends where it started is dropped. (With final-score eviction a set
// in fact transitions at most once per batch per engine — the netting is the
// safety net that makes the boundary contract hold by construction.) A
// retaining sink (cloneSets) keeps the staged buffer — it leaves the free-list
// pool for good; otherwise the set is valid only during Emit, per the
// SetRetainer contract, and the buffer is recycled.
func (e *Engine) flushBatchEvents() {
	if len(e.staged) == 0 {
		return
	}
	slices.SortStableFunc(e.staged, func(x, y stagedEvent) int { return vset.CompareKeys(x.set, y.set) })
	w := 0
	for i := 0; i < len(e.staged); {
		first := e.staged[i]
		last := first
		for i++; i < len(e.staged) && e.staged[i].set.Equal(last.set); i++ {
			e.putSetBuf(last.set)
			last = e.staged[i]
		}
		if (last.kind == BecameOutputDense) != (first.kind == CeasedOutputDense) {
			e.staged[w] = last
			w++
		} else {
			e.putSetBuf(last.set)
		}
	}
	net := e.staged[:w]
	// Scores are flushed in real units: emitScale is the scale in force at
	// the batch boundary, which for a threshold tick is the epoch's NEW λ —
	// exactly the decayed value a sink should see.
	for _, kind := range [...]EventKind{BecameOutputDense, CeasedOutputDense} {
		for _, se := range net {
			if se.kind != kind {
				continue
			}
			e.stats.Events++
			e.sink.Emit(Event{
				Kind:    se.kind,
				Set:     se.set,
				Score:   se.score * e.emitScale,
				Density: e.th.Density(se.score, se.set.Len()) * e.emitScale,
			})
			if !e.cloneSets {
				e.putSetBuf(se.set)
			}
		}
	}
	clear(e.staged) // drop the set references a retaining sink now owns
	e.staged = e.staged[:0]
}
