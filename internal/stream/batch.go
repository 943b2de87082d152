package stream

import (
	"errors"
	"fmt"
	"io"
)

// Batch is one coalescible group of updates: the unit Engine.ProcessBatch
// applies as a single logical tick. Sources with natural batch structure
// (the Aggregator's per-epoch decay bursts and per-document deltas, a
// FileSource with batch markers) implement BatchSource; any other
// UpdateSource can be chunked into fixed-size batches with AsBatchSource.
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
	// every tracked pair (see Aggregator and core.ProcessThresholdBatch).
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
// when the stream is exhausted; empty batches are legal (a no-op tick). Like
// UpdateSource, batch sources are pull-based and single-consumer, and the
// returned Batch.Updates slice is only valid until the next NextBatch call.
type BatchSource interface {
	NextBatch() (Batch, error)
}

// AsBatchSource returns src's own batch structure when it has one, and
// otherwise wraps it so every n consecutive updates form one batch. n must be
// positive for the wrapping case.
func AsBatchSource(src UpdateSource, n int) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return &chunkSource{src: src, n: n}
}

// chunkSource adapts a plain UpdateSource into fixed-size batches.
type chunkSource struct {
	src  UpdateSource
	n    int
	buf  []Update
	done bool
}

// NextBatch implements BatchSource. A non-positive chunk size is an error
// here (rather than a precondition on AsBatchSource) so every driver inherits
// the validation instead of each re-implementing it.
func (c *chunkSource) NextBatch() (Batch, error) {
	if c.n <= 0 {
		return Batch{}, fmt.Errorf("stream: batch size must be positive, got %d", c.n)
	}
	if c.done {
		return Batch{}, io.EOF
	}
	c.buf = c.buf[:0]
	for len(c.buf) < c.n {
		u, err := c.src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				c.done = true
				if len(c.buf) > 0 {
					return Batch{Updates: c.buf}, nil
				}
			}
			return Batch{}, err
		}
		c.buf = append(c.buf, u)
	}
	return Batch{Updates: c.buf}, nil
}
