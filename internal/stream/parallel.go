package stream

import (
	"errors"
	"io"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/shard"
)

// ShardReplay drives an UpdateSource through a ShardedEngine. It is the
// parallel counterpart of Replay: the source is read on the caller's
// goroutine batch by batch and fed to the sharded engine's asynchronous
// Process, and the final statistics combine the aggregate wall-clock
// throughput with the per-shard busy-time accounting the merge layer keeps.
// Kept only for bench/par.go, ROADMAP item 7.
type ShardReplay struct {
	src UpdateSource
	se  *shard.ShardedEngine

	stats ShardReplayStats
	start time.Time
	done  bool
	hook  func() error
}

// ShardLoadStats is one shard's share of a replay. Delivered counts the work
// units the shard fully processed and Applied the units scoped delivery
// reduced to a bare graph apply (see shard.ShardLoad for the unit
// definition); under mirror delivery Applied is always 0.
type ShardLoadStats struct {
	Shard     int
	Delivered uint64
	Applied   uint64
	Busy      time.Duration // time inside the worker engine on this shard
	RawEvents uint64        // events emitted before merge deduplication
}

// DeliveryFraction returns Delivered / (Delivered + Applied), the fraction of
// this shard's work units that needed full processing.
func (l ShardLoadStats) DeliveryFraction() float64 {
	total := l.Delivered + l.Applied
	if total == 0 {
		return 0
	}
	return float64(l.Delivered) / float64(total)
}

// ShardReplayStats aggregates the work performed by a ShardReplay.
type ShardReplayStats struct {
	Shards  int
	Updates int    // updates pulled from the source and accepted
	Batches int    // read batches fed to the engine
	Events  uint64 // merged (deduplicated) events emitted downstream
	// Ticks counts merger sequence slots: one per update in per-update mode,
	// one per coalesced batch in batch mode — the final sequence number a
	// SeqSink consumer (story tracker) should be closed with.
	Ticks int
	Wall  time.Duration // wall clock from the first update to the final flush

	PerShard []ShardLoadStats

	// Ingest carries the front-end's per-stage busy/stall accounting when the
	// source is a pipelined front-end (stream.Pipeline); nil otherwise.
	Ingest *IngestStats
}

// UpdatesPerSecond returns the end-to-end replay throughput (0 before any
// work). Unlike the single-engine ReplayStats this is wall-clock throughput:
// it includes merge and channel overhead, which is the honest number for a
// concurrent pipeline.
func (s ShardReplayStats) UpdatesPerSecond() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Updates) / s.Wall.Seconds()
}

// BusyTotal returns the summed busy time across shards. BusyTotal/Wall is the
// effective parallelism of the run.
func (s ShardReplayStats) BusyTotal() time.Duration {
	var total time.Duration
	for _, l := range s.PerShard {
		total += l.Busy
	}
	return total
}

// ParallelEfficiency returns busy / (wall · K): the fraction of the
// deployment's total core-time budget actually spent inside worker engines.
// 1.0 means K cores fully busy for the whole run; the raw busy multiple
// (BusyTotal/Wall) is this times K. Scoped delivery lowers per-shard busy
// time, so a scoped run can have lower efficiency than a mirror run while
// finishing much sooner — throughput, not efficiency, is the headline.
func (s ShardReplayStats) ParallelEfficiency() float64 {
	if s.Wall <= 0 || s.Shards == 0 {
		return 0
	}
	return float64(s.BusyTotal()) / (float64(s.Wall) * float64(s.Shards))
}

// MeanDeliveryFraction returns the mean per-shard DeliveryFraction (1.0 for
// mirror delivery, ideally near 1/K plus interest overlap for scoped).
func (s ShardReplayStats) MeanDeliveryFraction() float64 {
	if len(s.PerShard) == 0 {
		return 0
	}
	var sum float64
	for _, l := range s.PerShard {
		sum += l.DeliveryFraction()
	}
	return sum / float64(len(s.PerShard))
}

// NewShardReplay wires src → sharded engine → sink, installing sink on the
// engine when non-nil. The engine must not have been fed updates yet. Kept
// only for bench/par.go, ROADMAP item 7.
func NewShardReplay(src UpdateSource, se *shard.ShardedEngine, sink core.EventSink) *ShardReplay {
	if sink != nil {
		se.SetSink(sink)
	}
	return &ShardReplay{src: src, se: se}
}

// SetBoundaryHook installs fn to run between driver batches in RunBatches,
// exactly like Replay.SetBoundaryHook. The hook runs on the producer
// goroutine with updates possibly still in flight behind the merge barrier; a
// hook that needs a quiesced deployment (checkpointing) flushes the engine
// itself.
func (r *ShardReplay) SetBoundaryHook(fn func() error) { r.hook = fn }

// Flush blocks until every fed update has cleared the merge barrier and
// refreshes the statistics.
func (r *ShardReplay) Flush() {
	r.se.Flush()
	if !r.start.IsZero() {
		r.stats.Wall = time.Since(r.start)
	}
}

// Stats flushes and returns the statistics accumulated so far.
func (r *ShardReplay) Stats() ShardReplayStats {
	r.Flush()
	es := r.se.Stats()
	s := r.stats
	s.Shards = len(es.Loads)
	s.Events = es.MergedEvents
	if ir, ok := r.src.(ingestReporter); ok {
		is := ir.IngestStats()
		s.Ingest = &is
	}
	s.PerShard = make([]ShardLoadStats, len(es.Loads))
	for i, l := range es.Loads {
		s.PerShard[i] = ShardLoadStats{
			Shard:     l.Shard,
			Delivered: l.Delivered,
			Applied:   l.Applied,
			Busy:      l.Busy,
			RawEvents: l.RawEvents,
		}
	}
	return s
}

// RunBatches drains the source batch by batch (the source's own batches when
// it implements BatchSource, fixed chunks of readBatch updates otherwise).
// With coalesce true each whole batch ships to the sharded engine as one
// coalesced unit — one worker-channel broadcast and one merger sequence slot
// per batch instead of per update; with coalesce false the batch's updates
// are fed per-update (ProcessAll), the sequential-semantics baseline.
// Threshold batch units — rescaled-decay epochs — are inherently atomic and
// ship as one broadcast unit in both modes. Flushes and returns the final
// statistics; a source error other than io.EOF aborts the run and is
// returned with the statistics accumulated so far.
func (r *ShardReplay) RunBatches(readBatch int, coalesce bool) (ShardReplayStats, error) {
	if r.done {
		return r.Stats(), nil
	}
	bs := AsBatchSource(r.src, readBatch)
	for {
		b, err := bs.NextBatch()
		if err != nil {
			if errors.Is(err, io.EOF) {
				r.done = true
				return r.Stats(), nil
			}
			return r.Stats(), err
		}
		if r.start.IsZero() {
			r.start = time.Now()
		}
		switch {
		case b.Threshold != nil:
			// The sharded engine validates the scale producer-side (before
			// broadcasting to workers) and returns the error here rather than
			// panicking a worker goroutine — the seam a recovered WAL feeds.
			if err := r.se.ProcessThresholdBatch(b.Threshold.Scale, b.Updates); err != nil {
				return r.Stats(), err
			}
			r.stats.Ticks++
		case coalesce:
			r.se.ProcessBatch(b.Updates)
			r.stats.Ticks++ // empty batches are still boundary ticks
		default:
			r.se.ProcessAll(b.Updates)
			r.stats.Ticks += len(b.Updates)
		}
		r.stats.Updates += len(b.Updates)
		if len(b.Updates) > 0 || b.Threshold != nil {
			r.stats.Batches++
		}
		if r.hook != nil {
			if err := r.hook(); err != nil {
				return r.Stats(), err
			}
		}
	}
}
