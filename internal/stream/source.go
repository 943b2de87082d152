// Package stream is the ingestion layer of the DynDens pipeline: it produces
// the edge-weight update streams the engine consumes and replays them through
// an Engine into an EventSink.
//
// The paper's setting is a continuous stream of (a, b, δ) updates derived
// from entity co-occurrences in a document stream (Section 2). That stream
// arrives in natural units — a document's co-occurrence deltas, an epoch's
// fading step — so every source here is a BatchSource: a file of recorded
// updates, the document aggregator, or a slice held in memory. The Replay
// driver feeds a source batch by batch through the engine while aggregating
// throughput and latency statistics.
//
// # Errors versus panics
//
// Everything that can fail at a stream seam — malformed input, an I/O error,
// a boundary hook refusing to continue (stream.ErrStopped), an invalid
// configuration — is returned as an error and propagates out of the replay
// drivers, so a crash-consistent caller (cmd/dyndens, internal/persist) can
// checkpoint, report, and resume. Panics are reserved for two cases: the
// Must* constructor variants, which exist for tests and examples with
// known-good configurations, and genuine invariant violations (a sequence
// number running backwards, use after Close) that indicate a bug in the
// caller rather than a recoverable condition of the stream.
package stream

import (
	"io"

	"dyndens/internal/graph"
)

// Update aliases the engine's edge-weight update type.
type Update = graph.Update

// SliceSource replays a fixed slice of updates in batches of n, the last one
// possibly shorter. It is the trivial source used by tests and by callers
// that already hold the stream in memory.
type SliceSource struct {
	updates []Update
	n       int
}

// NewSliceSource returns a source that yields the given updates in order, n
// per batch; n ≤ 0 yields the whole slice as one batch.
func NewSliceSource(updates []Update, n int) *SliceSource {
	return &SliceSource{updates: updates, n: n}
}

// NextBatch implements BatchSource. The batch aliases the caller's slice.
func (s *SliceSource) NextBatch() (Batch, error) {
	if len(s.updates) == 0 {
		return Batch{}, io.EOF
	}
	k := len(s.updates)
	if s.n > 0 && s.n < k {
		k = s.n
	}
	b := Batch{Updates: s.updates[:k:k]}
	s.updates = s.updates[k:]
	return b, nil
}
