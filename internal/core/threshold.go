package core

import (
	"fmt"
	"math"

	"dyndens/internal/density"
	"dyndens/internal/vset"
)

// This file implements threshold updates (Section 6) as stream units, the
// only way the engine's threshold moves: the engine half of rescaled decay
// (see internal/stream's Aggregator). The aggregator keeps weights in
// normalized units w' = w/λ, λ the cumulative decay scale. Scaling every
// weight by λ scales every density by λ, so fading the graph is raising the
// threshold to baseT/λ: an epoch reaches the engine as ONE unit carrying the
// new scale plus the cancellations of pairs retired below PruneBelow, and
// emitScale = λ converts scores and densities back to real units wherever
// they leave the engine. λ only shrinks, so below the fold floor
// density.Fold splits it into m·2^k and the engine relabels its state by 2^k
// (fold) — exact, so it changes nothing but units — as the aggregator does
// its own at the same unit. The configured T is the real-unit base schedule,
// fixed at New; the schedule in force is always base's at the emit scale.

// ProcessThresholdBatch absorbs one decay epoch: it applies the retirement
// cancellations in updates as a coalesced batch, moves the normalized output
// threshold to baseT/scale, and pushes the net output-dense changes to the
// sink as one logical tick. scale is the cumulative decay factor λ > 0 after
// the epoch; it becomes the emit scale, folded if it is below the fold floor.
// A shrinking scale raises the threshold through the incremental walk; a
// growing one lowers it, which rebuilds the index. A scale that is not > 0
// panics: runUnit reads 0 as a plain batch.
func (e *Engine) ProcessThresholdBatch(scale float64, updates []Update) {
	if !(scale > 0) {
		panic(fmt.Sprintf("core: threshold batch scale %v yields invalid threshold %v", scale, e.base.T/scale))
	}
	e.runUnit(updates, scale)
}

// scheduleAt writes the schedule of decay scale s into dst. Every scale a
// rescaled aggregator produces has one; a panic here means the caller handed
// us garbage, not a recoverable stream.
func (e *Engine) scheduleAt(dst *density.Thresholds, s float64) {
	if err := e.base.Normalize(dst, s); err != nil {
		panic(fmt.Sprintf("core: threshold batch scale %v yields invalid threshold %v: %v", s, e.base.T/s, err))
	}
}

// fold relabels the engine's normalized units by 2^k: edge weights, stored
// and family scores, finite reach certificates, heavy-edge buckets and the
// staged deltas are multiplied by 2^k, and the schedule and emit scale
// follow. All of it is exact, so a fold admits, evicts and reports nothing.
func (e *Engine) fold(k int) {
	e.g.Ldexp(k)
	e.ix.Ldexp(k)
	for i := range e.batchNet {
		e.batchNet[i].delta = math.Ldexp(e.batchNet[i].delta, k)
	}
	e.emitScale = math.Ldexp(e.emitScale, -k)
	e.scheduleAt(e.th, e.emitScale)
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
