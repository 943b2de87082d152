package core

import (
	"fmt"
	"math"

	"dyndens/internal/density"
)

// This file implements threshold updates as stream units: the engine half of
// rescaled decay (see internal/stream's Aggregator). The aggregator keeps
// weights in normalized units w' = w/λ, λ the cumulative decay scale. Scaling
// every weight by λ scales every density by λ, so fading the graph is raising
// the threshold to baseT/λ: an epoch reaches the engine as ONE unit carrying
// the new scale plus the cancellations of pairs retired below PruneBelow, and
// emitScale = λ converts scores and densities back to real units wherever
// they leave the engine. λ only shrinks, so below the fold floor
// density.Fold splits it into m·2^k and the engine relabels its state by 2^k
// (fold) — exact, so it changes nothing but units — as the aggregator does
// its own at the same unit.

// ProcessThresholdBatch absorbs one decay epoch: it applies the retirement
// cancellations in updates as a coalesced batch, moves the normalized output
// threshold to baseT/scale, and emits the net output-dense changes as one
// logical tick. scale is the cumulative decay factor λ after the epoch; it
// becomes the emit scale, folded if it is below the fold floor. A shrinking
// scale raises the threshold through the incremental walk; a growing one
// lowers it, which rebuilds the index. Like ProcessBatch it pushes events to
// the installed sink (returning nil) when one is present.
func (e *Engine) ProcessThresholdBatch(scale float64, updates []Update) []Event {
	return e.ProcessThresholdBatchRouted(scale, updates, nil)
}

// ProcessThresholdBatchScoped is ProcessThresholdBatchRouted under scoped
// delivery, which keeps a rebuild's admissions within the worker's interest.
func (e *Engine) ProcessThresholdBatchScoped(scale float64, updates []Update, seed func(a, b Vertex) bool) []Event {
	e.batchScoped = true
	defer func() { e.batchScoped = false }()
	return e.ProcessThresholdBatchRouted(scale, updates, seed)
}

// ProcessThresholdBatchRouted is ProcessThresholdBatch for engines embedded
// as workers of a partitioned deployment (see ProcessBatchRouted). A fold
// comes first; then the cancellations land under the OLD threshold (a
// retiring pair's weight change is netted before the schedule moves), the
// threshold walk repairs the index, and the emit scale switches to the new λ
// only after all staged events are known. A rebuild replaces repair, walk and
// discovery.
func (e *Engine) ProcessThresholdBatchRouted(scale float64, updates []Update, seed func(a, b Vertex) bool) []Event {
	e.stats.Updates += uint64(len(updates))
	e.stats.Batches++
	e.stats.ThresholdTicks++

	e.stageBatchDeltas(updates)
	e.beginEmit()
	e.batching = true
	e.batchSeed = seed
	e.ix.BeginUpdate()
	m, k := density.Fold(scale)
	if k != 0 {
		e.fold(k)
	}
	repair := len(e.batchNet) > 0 && e.base.T/m >= e.th.T // a decrease rebuilds instead
	if repair {
		e.prepareBatchDirty()
		e.batchRepair()
	}
	if e.base.T/m != e.th.T {
		e.scheduleAt(e.spareTh, m)
		e.switchThreshold()
	}
	if repair {
		e.batchDiscover()
	}
	e.batchSeed = nil
	e.batching = false
	e.emitScale = m
	e.noteIndexSize()
	e.flushBatchEvents()
	return e.finishEmit()
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
	e.cfg.T, e.cfg.DeltaIt = e.th.T, e.th.DeltaIt
}
