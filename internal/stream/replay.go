package stream

import (
	"errors"
	"fmt"
	"io"
	"time"

	"dyndens/internal/core"
)

// Replay drives a BatchSource through an Engine into an EventSink. It is
// the glue of the pipeline: sources know nothing about the engine, the engine
// knows nothing about where updates come from, and sinks only see results.
//
// Updates are processed batch by batch (RunBatches) so that callers can
// interleave replay with checkpoints or stop checks at the boundary hook, and
// so that latency is tracked at a granularity that is meaningful for a
// streaming system (per-batch, amortising the timer cost over many
// sub-microsecond updates).
type Replay struct {
	src BatchSource
	eng *core.Engine

	startEvents uint64
	stats       ReplayStats
	done        bool
	hook        func() error
}

// SegmentStats is the throughput accounting of one batch-provenance segment
// of a replay (epoch decay bursts vs everything else). An epoch tick is N
// updates but one logical batch; reporting both keeps throughput numbers
// comparable between the sequential and coalesced modes.
type SegmentStats struct {
	Updates int           // updates in this segment
	Batches int           // source batches in this segment
	Elapsed time.Duration // engine time spent in this segment
}

// UpdatesPerSecond returns the segment throughput (0 before any work).
func (s SegmentStats) UpdatesPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Updates) / s.Elapsed.Seconds()
}

// ReplayStats aggregates the work performed by a Replay.
type ReplayStats struct {
	Updates int    // updates pulled from the source and processed
	Events  uint64 // output events emitted by the engine during the replay
	Batches int    // read/driver batches that processed at least one update
	// Ticks counts logical engine boundaries: one per Process call in
	// sequential mode, one per coalesced ProcessBatch call in batch mode. A
	// boundary-aware sink (the story tracker) sees exactly Ticks EndUpdates.
	Ticks   int
	Elapsed time.Duration // total time spent inside the engine

	MinBatchLatency time.Duration // fastest non-empty batch
	MaxBatchLatency time.Duration // slowest non-empty batch

	// DecaySeg and OtherSeg split the replay by batch provenance: epoch
	// fading bursts vs document/positive batches. A source without decay
	// provenance (a file, a slice) puts everything in OtherSeg.
	DecaySeg SegmentStats
	OtherSeg SegmentStats
}

// UpdatesPerSecond returns the replay throughput (0 before any work).
func (s ReplayStats) UpdatesPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Updates) / s.Elapsed.Seconds()
}

// MeanUpdateLatency returns the average processing time per update.
func (s ReplayStats) MeanUpdateLatency() time.Duration {
	if s.Updates == 0 {
		return 0
	}
	return s.Elapsed / time.Duration(s.Updates)
}

// String formats the throughput/latency summary printed by the CLI driver.
// The segment line appears once a batch has been processed.
func (s ReplayStats) String() string {
	out := fmt.Sprintf(
		"replay{updates=%d ticks=%d events=%d batches=%d elapsed=%v throughput=%.0f upd/s mean=%v batch=[%v..%v]}",
		s.Updates, s.Ticks, s.Events, s.Batches, s.Elapsed.Round(time.Microsecond),
		s.UpdatesPerSecond(), s.MeanUpdateLatency(), s.MinBatchLatency, s.MaxBatchLatency)
	if s.DecaySeg.Batches > 0 || s.OtherSeg.Batches > 0 {
		out += fmt.Sprintf(
			"\nsegments{decay: %d upd / %d batches / %.0f upd/s | other: %d upd / %d batches / %.0f upd/s}",
			s.DecaySeg.Updates, s.DecaySeg.Batches, s.DecaySeg.UpdatesPerSecond(),
			s.OtherSeg.Updates, s.OtherSeg.Batches, s.OtherSeg.UpdatesPerSecond())
	}
	return out
}

// NewReplay wires src → eng → sink, installing sink on the engine. A nil
// sink keeps the sink already installed on the engine, if any, and otherwise
// installs a CountingSink. CountingSink declares
// it does not retain Event.Set (core.SetRetainer), so the engine skips the
// per-event set clone, keeping steady-state replay allocation-free.
func NewReplay(src BatchSource, eng *core.Engine, sink core.EventSink) *Replay {
	if sink == nil {
		if sink = eng.Sink(); sink == nil {
			sink = &core.CountingSink{}
		}
	}
	eng.SetSink(sink)
	return &Replay{
		src:         src,
		eng:         eng,
		startEvents: eng.Stats().Events,
	}
}

// SetBoundaryHook installs fn to run between driver batches in RunBatches —
// the quiescent points where every handed-out update has been processed.
// Hooks are how periodic checkpointing and signal-aware stops plug into the
// driver: a non-nil error aborts the run and is returned to the caller
// (return ErrStopped for a clean stop; the driver's statistics remain valid
// either way).
func (r *Replay) SetBoundaryHook(fn func() error) { r.hook = fn }

// Stats returns the statistics accumulated so far.
func (r *Replay) Stats() ReplayStats {
	s := r.stats
	s.Events = r.eng.Stats().Events - r.startEvents
	return s
}

// RunBatches drains the source batch by batch — the aggregator's epoch bursts
// and per-document deltas, a marker-delimited file — and returns the final
// statistics, with the decay/other segment split populated from batch
// provenance. A source error other than io.EOF aborts the run and is returned
// with the statistics accumulated so far; a call after the source is
// exhausted returns them without reading. readBatch is unused: the source
// owns its batching (FileSource.SetMaxBatch, NewSliceSource's n). It stays in
// the signature only for existing callers (ROADMAP item 6).
//
// With coalesce true each batch goes through Engine.ProcessBatch: one logical
// tick, net events at the batch boundary. With coalesce false the batch's
// updates are processed one Process call at a time but timed as a group,
// which is the apples-to-apples sequential baseline for the batched mode (the
// same grouping, the same timer granularity, per-update semantics). Either
// way a batch is in memory before its timer starts, so the latency statistics
// measure engine cost only, not source I/O or parsing.
//
// Threshold batch units — rescaled-decay epochs — are inherently atomic: they
// go through Engine.ProcessThresholdBatch as one tick in both modes, so a
// rescaled stream replays under either coalesce setting (the setting then
// only governs document batches).
func (r *Replay) RunBatches(readBatch int, coalesce bool) (ReplayStats, error) {
	if r.done {
		return r.Stats(), nil
	}
	for {
		b, err := r.src.NextBatch()
		if err != nil {
			r.done = errors.Is(err, io.EOF)
			if r.done {
				return r.Stats(), nil
			}
			return r.Stats(), err
		}
		start := time.Now()
		switch {
		case b.Threshold != nil:
			// Validate at the stream seam: a recovered WAL could in principle
			// hand the engine a corrupt scale, and the engine treats a bad
			// scale as a caller invariant violation (panic), not stream data.
			if err := ValidateThresholdScale(b.Threshold.Scale); err != nil {
				return r.Stats(), err
			}
			r.eng.ProcessThresholdBatch(b.Threshold.Scale, b.Updates)
		case coalesce:
			r.eng.ProcessBatch(b.Updates)
		default:
			for _, u := range b.Updates {
				r.eng.Process(u)
			}
		}
		elapsed := time.Since(start)
		r.stats.Updates += len(b.Updates)
		if coalesce || b.Threshold != nil {
			r.stats.Ticks++ // empty batches are still boundary ticks
		} else {
			r.stats.Ticks += len(b.Updates)
		}
		r.stats.Elapsed += elapsed
		seg := &r.stats.OtherSeg
		if b.Decay {
			seg = &r.stats.DecaySeg
		}
		seg.Updates += len(b.Updates)
		seg.Elapsed += elapsed
		if len(b.Updates) > 0 || b.Threshold != nil {
			// Batches counts batches that processed at least one update, like
			// the sequential driver; empty no-op ticks would skew per-batch
			// throughput derived from the stats. Threshold units count even
			// when they carry no cancellations: the threshold walk is real
			// engine work and is what the decay segment measures in rescaled
			// mode.
			r.stats.Batches++
			seg.Batches++
			if r.stats.MinBatchLatency == 0 || elapsed < r.stats.MinBatchLatency {
				r.stats.MinBatchLatency = elapsed
			}
			if elapsed > r.stats.MaxBatchLatency {
				r.stats.MaxBatchLatency = elapsed
			}
		}
		if r.hook != nil {
			if err := r.hook(); err != nil {
				return r.Stats(), err
			}
		}
	}
}
