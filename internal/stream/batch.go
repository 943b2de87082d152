package stream

// Batch is one coalescible group of updates, the unit a BatchSource hands
// Replay — the Aggregator's per-epoch decay bursts and per-document deltas, a
// FileSource's marker-delimited runs, a SliceSource's fixed-size chunks. The
// default replay applies it one update at a time (Engine.Process); batch mode
// applies it as a single logical tick (Engine.ProcessBatch). A threshold unit
// is always one tick (Engine.ProcessThresholdBatch).
type Batch struct {
	Updates []Update
	// Decay marks an epoch fading burst — the aggregator's per-epoch
	// negative deltas, the segment epoch coalescing targets. Replay tracks
	// decay and non-decay batches as separate throughput segments.
	Decay bool
	// Threshold, when non-nil, marks this batch as a rescaled-decay epoch
	// unit: the Updates are the epoch's (usually empty) retirement
	// cancellations in normalized units, and the engine must additionally
	// move its output threshold to baseT/Scale — the O(1) form of fading
	// every tracked pair (see Aggregator and core.Engine.ProcessThresholdBatch).
	// Threshold batches always have Decay set.
	Threshold *ThresholdUpdate
}

// ThresholdUpdate is the payload of a rescaled-decay epoch unit. Scale is the
// cumulative decay factor λ in force after the epoch: the aggregator's stored
// weights are normalized as w' = w/λ, so the engine rescales its density
// threshold to baseT/Scale and multiplies emitted scores and densities by
// Scale to restore real (paper-semantics) units. A Scale below the fold
// floor is folded by receiver and sender alike (density.Fold): both relabel
// their weights by the same power of two and carry on at a scale in [½, 1).
type ThresholdUpdate struct {
	Scale float64
}

// BatchSource produces a stream of update batches. NextBatch returns io.EOF
// when the stream is exhausted; any other error is a malformed or failed
// read. Empty batches are legal (a no-op tick). Sources are pull-based and
// single-consumer: NextBatch must not be called concurrently, and the
// returned Batch.Updates slice is only valid until the next call.
type BatchSource interface {
	NextBatch() (Batch, error)
}
