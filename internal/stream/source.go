// Package stream is the ingestion layer of the DynDens pipeline: it produces
// the edge-weight update streams the engine consumes and replays them through
// an Engine into an EventSink.
//
// The paper's setting is a continuous stream of (a, b, δ) updates derived
// from entity co-occurrences in a document stream (Section 2). This package
// abstracts where that stream comes from — a file of recorded updates, a
// seeded synthetic workload generator, or any custom UpdateSource — and
// provides the Replay driver that feeds a source batch by batch through the
// engine while aggregating throughput and latency statistics.
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
	"errors"
	"io"

	"dyndens/internal/graph"
)

// Update aliases the engine's edge-weight update type.
type Update = graph.Update

// UpdateSource produces a stream of edge-weight updates.
//
// Next returns io.EOF when the stream is exhausted; any other error is a
// malformed or failed read. Sources are pull-based and single-consumer: Next
// must not be called concurrently.
type UpdateSource interface {
	Next() (Update, error)
}

// SliceSource replays a fixed slice of updates. It is the trivial source used
// by tests and by callers that already hold the stream in memory.
type SliceSource struct {
	updates []Update
	pos     int
}

// NewSliceSource returns a source that yields the given updates in order.
func NewSliceSource(updates []Update) *SliceSource {
	return &SliceSource{updates: updates}
}

// Next implements UpdateSource.
func (s *SliceSource) Next() (Update, error) {
	if s.pos >= len(s.updates) {
		return Update{}, io.EOF
	}
	u := s.updates[s.pos]
	s.pos++
	return u, nil
}

// LimitSource caps an underlying source at n updates.
type LimitSource struct {
	src  UpdateSource
	left int
}

// NewLimitSource returns a source yielding at most n updates from src.
func NewLimitSource(src UpdateSource, n int) *LimitSource {
	return &LimitSource{src: src, left: n}
}

// Next implements UpdateSource.
func (s *LimitSource) Next() (Update, error) {
	if s.left <= 0 {
		return Update{}, io.EOF
	}
	u, err := s.src.Next()
	if err != nil {
		return Update{}, err
	}
	s.left--
	return u, nil
}

// Drain reads every remaining update from src into a slice. It is a helper
// for materialising finite sources (generation, tests); errors other than
// io.EOF are returned with the updates read so far.
func Drain(src UpdateSource) ([]Update, error) {
	var out []Update
	for {
		u, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
		out = append(out, u)
	}
}
