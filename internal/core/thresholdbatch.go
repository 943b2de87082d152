package core

import "fmt"

// This file implements threshold updates as first-class stream units: the
// engine-side half of rescaled decay (see internal/stream's Aggregator).
//
// A rescaled-decay aggregator keeps edge weights in normalized units
// w' = w/λ, where λ is the cumulative decay scale, and never sweeps its
// tracked pairs on an epoch tick. Because scaling every weight by λ scales
// every subgraph score and density by the same λ, fading the whole graph is
// algebraically identical to raising the density threshold to baseT/λ —
// which is exactly the dynamic threshold-adjustment procedure of Section 6
// that SetThreshold already implements incrementally. A decay epoch therefore
// reaches the engine as ONE unit carrying the new scale plus the (usually
// empty) exact cancellations of pairs that expired below PruneBelow, instead
// of a negative delta per tracked pair.
//
// The engine's graph, index, and threshold schedule all run in normalized
// units; emitScale = λ converts scores and densities back to real
// (paper-semantics) units at every emission and query point, so sinks and
// trackers downstream observe exactly what a per-pair decay sweep would have
// produced (modulo float rounding — pinned against the paper-literal sweep of
// internal/baseline/fade by internal/stream's decay conformance tests).

// ProcessThresholdBatch absorbs one decay epoch of a rescaled-decay stream:
// it applies the (possibly empty) retirement cancellations in updates as a
// coalesced batch, then moves the normalized output threshold to baseT/scale
// via the incremental threshold walk, and emits the net output-dense changes
// as one logical tick. scale is the cumulative decay factor λ in force after
// the epoch; it becomes the engine's emit scale. Like ProcessBatch it pushes
// events to the installed sink (returning nil) when one is present.
func (e *Engine) ProcessThresholdBatch(scale float64, updates []Update) []Event {
	return e.ProcessThresholdBatchRouted(scale, updates, nil)
}

// ProcessThresholdBatchScoped is ProcessThresholdBatchRouted under scoped
// delivery. Threshold units are broadcast to every worker: the deltas of a
// threshold batch are negative cancellations (handled index-scoped by
// batchRepair) or a renormalization's uniform rescale, so the scoped
// discovery skip never fires on them, but the flag keeps any admissions made
// by the threshold walk consistent with the worker's interest map.
func (e *Engine) ProcessThresholdBatchScoped(scale float64, updates []Update, seed func(a, b Vertex) bool) []Event {
	e.batchScoped = true
	defer func() { e.batchScoped = false }()
	return e.ProcessThresholdBatchRouted(scale, updates, seed)
}

// ProcessThresholdBatchRouted is ProcessThresholdBatch for engines embedded
// as workers of a partitioned deployment (see ProcessBatchRouted).
//
// Ordering within the tick matters and mirrors the exact path's semantics:
// the cancellation deltas land first under the OLD threshold (a retiring
// pair's weight change must be netted before the schedule moves — and a
// renormalization's rescale deltas must be in place before the threshold
// drops back to baseT), then the threshold walk repairs the index, and the
// emit scale switches to the tick's new λ only after all staged events are
// known, so the flush converts every score with the factor in force at the
// batch boundary.
func (e *Engine) ProcessThresholdBatchRouted(scale float64, updates []Update, seed func(a, b Vertex) bool) []Event {
	e.stats.Updates += uint64(len(updates))
	e.stats.Batches++
	e.stats.ThresholdTicks++

	e.stageBatchDeltas(updates)
	e.beginEmit()
	hasDeltas := len(e.batchNet) > 0
	if hasDeltas {
		e.prepareBatchDirty()
	}

	e.batching = true
	e.batchSeed = seed
	e.ix.BeginUpdate()
	if hasDeltas {
		e.batchRepair()
	}
	if newT := e.baseT / scale; newT != e.th.T {
		if err := e.th.Rescale(e.spareTh, newT); err != nil {
			// Unreachable for the scales a rescaled aggregator produces
			// (λ ∈ [1e-150, 1] keeps newT finite and positive); a panic here
			// means the caller handed us garbage, not a recoverable stream.
			panic(fmt.Sprintf("core: threshold batch scale %v yields invalid threshold %v: %v", scale, newT, err))
		}
		e.switchThreshold()
	}
	if hasDeltas {
		e.batchDiscover()
	}
	e.batchSeed = nil
	e.batching = false
	e.emitScale = scale
	if n := e.ix.NodeCount(); n > e.stats.MaxIndexNodes {
		e.stats.MaxIndexNodes = n
	}
	e.flushBatchEvents()
	return e.finishEmit()
}
