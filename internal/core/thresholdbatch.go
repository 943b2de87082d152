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
// threshold to baseT/scale, and pushes the net output-dense changes to the
// sink as one logical tick. scale is the cumulative decay factor λ after the
// epoch; it becomes the emit scale, folded if it is below the fold floor. A
// shrinking scale raises the threshold through the incremental walk; a growing
// one lowers it, which rebuilds the index.
func (e *Engine) ProcessThresholdBatch(scale float64, updates []Update) {
	e.runUnit(updates, toScale, scale, nil, false)
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
