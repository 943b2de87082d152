package core

import (
	"errors"
	"slices"

	"dyndens/internal/density"
	"dyndens/internal/graph"
	"dyndens/internal/vset"
)

// ErrSameThreshold is returned by SetThreshold when the new threshold equals
// the current one.
var ErrSameThreshold = errors.New("core: new threshold equals the current threshold")

// SetThreshold performs the dynamic threshold-adjustment procedure of
// Section 6 (Algorithms 3 and 4): it changes the output-density threshold T
// at runtime without recomputing the index from scratch, rescaling δ_it
// proportionally, and returns the resulting changes to the output-dense set.
//
// Increasing the threshold scans the index once, evicting subgraphs that are
// no longer dense and reporting subgraphs that are no longer output-dense.
// Decreasing the threshold first considers every edge of the graph as a
// potential newly-dense seed, then explores around every indexed dense
// subgraph to discover subgraphs that became dense under the lower schedule.
//
// Like Process, SetThreshold pushes the changes to the installed sink (and
// returns a nil slice) when one is present.
func (e *Engine) SetThreshold(newT float64) ([]Event, error) {
	if newT == e.th.T {
		return nil, ErrSameThreshold
	}
	if err := e.th.Rescale(e.spareTh, newT); err != nil {
		return nil, err
	}
	e.beginEmit()
	e.ix.BeginUpdate()
	e.switchThreshold()
	// newT is in the engine's internal (normalized) units; keep the real-unit
	// base threshold consistent so rescaled-decay ticks keep honouring the
	// caller's choice (baseT/emitScale must always equal the normalized T).
	e.baseT = newT * e.emitScale
	if n := e.ix.NodeCount(); n > e.stats.MaxIndexNodes {
		e.stats.MaxIndexNodes = n
	}
	return e.finishEmit(), nil
}

// switchThreshold moves the engine onto the schedule Rescale left in spareTh,
// repairing the index as Algorithm 3 does for a move in that direction. The
// schedule it leaves becomes the spare, which the next move rewrites: the
// engine keeps two schedules, and a threshold move allocates no third.
func (e *Engine) switchThreshold() {
	oldTh, newTh := e.th, e.spareTh
	if newTh.T > oldTh.T {
		e.increaseThreshold(newTh)
	} else {
		e.decreaseThreshold(newTh)
	}
	e.spareTh = oldTh
	e.cfg.T, e.cfg.DeltaIt = newTh.T, newTh.DeltaIt
}

// increaseThreshold implements Algorithm 3, lines 2–4. Every indexed node is
// classified from its cardinality and stored score alone, against the old and
// the new schedule; the vertex set is rebuilt only for a node that reports. A
// tick of rescaled decay, which runs this once per epoch, therefore costs a
// few compares per indexed node plus set work per node that crosses a bound.
func (e *Engine) increaseThreshold(newTh *density.Thresholds) {
	oldTh := e.th
	e.th = newTh
	setBuf := e.getSetBuf()
	for _, node := range e.denseSnapshot() {
		n, score := node.Card(), node.Score()
		stays := newTh.IsDense(score, n)
		if oldTh.IsOutputDense(score, n) && !(stays && newTh.IsOutputDense(score, n)) {
			setBuf = node.SetInto(setBuf)
			e.emit(CeasedOutputDense, setBuf, score)
		}
		if !stays {
			e.evict(node)
		} else if e.ix.HasStar(node) && !newTh.IsTooDense(score, n) {
			e.ix.RemoveStar(node)
		}
	}
	e.putSetBuf(setBuf)
}

// decreaseThreshold implements Algorithm 3, lines 5–9.
func (e *Engine) decreaseThreshold(newTh *density.Thresholds) {
	oldTh := e.th
	e.th = newTh
	// Pre-existing dense subgraphs: they all remain dense under the lower
	// schedule. Report the ones that just became output-dense, refresh their
	// ImplicitTooDense status, and remember whether they were too-dense under
	// the old schedule (Algorithm 4's guard). Nothing below touches
	// affectedBuf, so the snapshot outlives the admissions.
	existing := e.denseSnapshot()
	wasTooDense := slices.Grow(e.tooDenseBuf[:0], len(existing))[:len(existing)]
	e.tooDenseBuf = wasTooDense
	setBuf := e.getSetBuf()
	for i, node := range existing {
		setBuf = node.SetInto(setBuf)
		n, score := node.Card(), node.Score()
		wasTooDense[i] = oldTh.IsTooDense(score, n)
		if !oldTh.IsOutputDense(score, n) && newTh.IsOutputDense(score, n) {
			e.emit(BecameOutputDense, setBuf, score)
		}
		if e.maintainStar(node, score, n) {
			e.starEdgeScan(setBuf, score, func(c2 vset.Set, s2 float64) { e.thresholdAdmit(c2, s2) })
		}
	}
	// Base case (Algorithm 3, lines 6–7): every edge of the graph may now be a
	// dense subgraph of cardinality 2 — every edge heavy enough for IsDense,
	// that is, and only those are enumerated.
	e.g.EdgesNotIncident(nil, newTh.DenseFloor(2), func(u, v graph.Vertex, w float64) {
		pair := vset.New(u, v)
		if e.ix.HasDense(pair) {
			return
		}
		e.thresholdAdmit(pair, w)
	})
	// Explore around every previously indexed dense subgraph (Algorithm 3,
	// lines 8–9), except those that were too-dense under the old schedule:
	// their dense supergraphs were already represented. Newly admitted
	// subgraphs are explored recursively as part of thresholdAdmit, mirroring
	// UpdateExplore's stop-at-stable-dense rule.
	for i, node := range existing {
		if node.Dense() && !wasTooDense[i] {
			setBuf = node.SetInto(setBuf)
			e.updateExplore(setBuf, node.Score())
		}
	}
	e.putSetBuf(setBuf)
}

// thresholdAdmit inserts a subgraph discovered to be dense during a threshold
// decrease, reports it if output-dense, and explores around it (Algorithm 4).
func (e *Engine) thresholdAdmit(c vset.Set, score float64) {
	node := e.ix.InsertDense(c, score)
	e.stats.Insertions++
	n := c.Len()
	if e.th.IsOutputDense(score, n) {
		e.emit(BecameOutputDense, c, score)
	}
	if e.maintainStar(node, score, n) {
		e.starEdgeScan(c, score, func(c2 vset.Set, s2 float64) { e.thresholdAdmit(c2, s2) })
	}
	e.updateExplore(c, score)
}

// updateExplore is Algorithm 4 (UpdateExplore): augment a dense subgraph with
// one vertex, recursing on newly-dense results. Unlike the per-update
// exploration there is no ceil(δ/δ_it) iteration bound — recursion stops when
// only stable-dense (already indexed) supergraphs remain or Nmax is reached.
func (e *Engine) updateExplore(c vset.Set, score float64) {
	n := c.Len()
	if n >= e.th.Nmax {
		return
	}
	e.stats.Explorations++
	nbuf := e.getNbuf()
	ys, adds := e.g.NeighborhoodScores(c, e.exploreNeed(score, n), nbuf)
	childBuf := e.getSetBuf()
	for i, y := range ys {
		childScore := score + adds[i]
		if !e.th.IsDense(childScore, n+1) {
			continue
		}
		child := vset.AddInto(childBuf, c, y)
		childBuf = child
		if e.ix.HasDense(child) {
			continue
		}
		e.thresholdAdmit(child, childScore)
	}
	e.putSetBuf(childBuf)
	e.putNbuf(nbuf)
}
