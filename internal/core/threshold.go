package core

import (
	"errors"

	"dyndens/internal/density"
	"dyndens/internal/vset"
)

// ErrSameThreshold is returned by SetThreshold when the new threshold equals
// the current one.
var ErrSameThreshold = errors.New("core: new threshold equals the current threshold")

// SetThreshold changes the output-density threshold T at runtime (Section 6),
// rescaling δ_it proportionally, and pushes the changes to the output-dense
// set to the sink as one logical tick.
func (e *Engine) SetThreshold(newT float64) error {
	if newT == e.th.T {
		return ErrSameThreshold
	}
	if err := e.th.Rescale(e.spareTh, newT); err != nil {
		return err
	}
	// newT is in normalized units; the real-unit base moves with it.
	if err := e.spareTh.Normalize(e.base, 1/e.emitScale); err != nil {
		return err
	}
	e.runUnit(nil, toSpare, 0, nil, false)
	return nil
}

// switchThreshold moves the engine onto the schedule in spareTh, staging the
// changes for the batch in flight: Algorithm 3's walk (lines 2–4) for a
// raise, a rebuild for a decrease. The old schedule becomes the spare.
func (e *Engine) switchThreshold() {
	oldTh := e.th
	e.th, e.spareTh = e.spareTh, oldTh
	e.cfg.T, e.cfg.DeltaIt = e.th.T, e.th.DeltaIt
	if e.th.T > oldTh.T {
		e.increaseThreshold(oldTh)
	} else {
		e.rebuild(oldTh)
	}
}

// increaseThreshold implements Algorithm 3, lines 2–4. Every indexed node is
// classified from its cardinality and stored score alone, against the old and
// the new schedule; the vertex set is rebuilt only for a node that reports.
func (e *Engine) increaseThreshold(oldTh *density.Thresholds) {
	setBuf := e.getSetBuf()
	for _, node := range e.denseSnapshot() {
		n, score := node.Card(), node.Score()
		stays := e.th.IsDense(score, n)
		if oldTh.IsOutputDense(score, n) && !(stays && e.th.IsOutputDense(score, n)) {
			setBuf = node.SetInto(setBuf)
			e.emit(CeasedOutputDense, setBuf, score)
		}
		if !stays {
			e.evict(node)
		} else if e.ix.HasStar(node) && !e.th.IsTooDense(score, n) {
			e.ix.RemoveStar(node)
		}
	}
	e.putSetBuf(setBuf)
}

// rebuild is a threshold decrease: it clears the index, rediscovers it from
// the graph exactly as a fresh engine does from one ProcessBatch of every
// edge, and stages the difference between the explicit output-dense sets
// before and after. Every output-dense subgraph stays output-dense, but the
// rebuilt index may stand for one through an ImplicitTooDense family where
// the old one held it explicitly, so a set can cease as well as become.
func (e *Engine) rebuild(oldTh *density.Thresholds) {
	var was []vset.Set
	for _, node := range e.denseSnapshot() {
		if oldTh.IsOutputDense(node.Score(), node.Card()) {
			was = append(was, node.Set())
		}
		e.ix.EvictDense(node)
		e.stats.Evictions++
	}
	e.batchNet = e.batchNet[:0]
	e.g.Edges(func(u, v Vertex, w float64) { e.batchNet = append(e.batchNet, pairDelta{packPair(u, v), w}) })
	e.prepareBatchDirty()
	e.batchDiscover()
	// Discovery staged every output-dense set of the new index as become;
	// staged after it, a ceased for each set of the old one nets against it.
	for _, c := range was {
		e.stageBatchEvent(CeasedOutputDense, c, e.g.Score(c))
	}
}
