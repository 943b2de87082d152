// Package shard keeps the names of the former sharded engine that
// bench/par.go calls, with one core.Engine behind them, driven in the
// caller's goroutine. No command of the CLI uses it. Kept only for
// bench/par.go, ROADMAP item 7.
package shard

import (
	"fmt"
	"math"
	"time"

	"dyndens/internal/core"
)

// Config configures a ShardedEngine. Shards is accepted and ignored: there is
// one engine.
type Config struct {
	Shards int
	Engine core.Config
}

// SeqEvent is one output event tagged with the 1-based number of the unit
// that produced it: one per Process call, one per batch or threshold unit.
type SeqEvent struct {
	Seq   uint64
	Event core.Event
}

// SeqSink receives the sequence-numbered event stream. Like core.EventSink it
// runs on the processing goroutine and must not call back into the engine.
type SeqSink interface {
	EmitSeq(ev SeqEvent)
}

// ShardLoad is one worker's share of the work. One engine does all of it, so
// Stats.Loads is empty.
type ShardLoad struct {
	Busy time.Duration
}

// Stats is the engine's counters plus the delivered-event count.
type Stats struct {
	Aggregate     core.Stats  // the engine's own counters
	Loads         []ShardLoad // empty: no workers
	MergedEvents  uint64      // events delivered: the engine's Stats.Events
	DedupedEvents uint64      // always 0: nothing is delivered twice
}

// MeanDeliveryFraction is 1: the one engine fully processes every update.
func (Stats) MeanDeliveryFraction() float64 { return 1 }

// ShardedEngine is one core.Engine whose events reach a SeqSink tagged with
// the number of their unit. Every call runs to completion before it returns.
type ShardedEngine struct {
	eng    *core.Engine
	seq    seqAdapter
	closed bool
}

// seqAdapter is the engine's sink: it numbers units at their EndUpdate, so
// the numbers count every unit, event-free ones included.
type seqAdapter struct {
	next uint64 // the number of the unit in progress
	out  SeqSink
}

func (a *seqAdapter) Emit(ev core.Event) {
	if a.out != nil {
		a.out.EmitSeq(SeqEvent{Seq: a.next, Event: ev})
	}
}

func (a *seqAdapter) EndUpdate() { a.next++ }

// New builds the engine of cfg.Engine.
func New(cfg Config) (*ShardedEngine, error) {
	eng, err := core.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	se := &ShardedEngine{eng: eng, seq: seqAdapter{next: 1}}
	eng.SetSink(&se.seq)
	return se, nil
}

// Engine returns the engine behind the names.
func (se *ShardedEngine) Engine() *core.Engine { return se.eng }

// SetSeqSink installs the destination of the numbered events. It must be
// called before the first update.
func (se *ShardedEngine) SetSeqSink(s SeqSink) { se.seq.out = s }

// ProcessAll processes each update as one unit. It panics after Close.
func (se *ShardedEngine) ProcessAll(updates []core.Update) {
	se.mustBeOpen()
	for _, u := range updates {
		se.eng.Process(u)
	}
}

// ProcessThresholdBatch processes one threshold unit. A scale outside
// (0, 1] is returned as an error before the engine sees it. It panics after
// Close.
func (se *ShardedEngine) ProcessThresholdBatch(scale float64, updates []core.Update) error {
	se.mustBeOpen()
	if math.IsNaN(scale) || scale <= 0 || scale > 1 {
		return fmt.Errorf("shard: threshold batch scale %v outside (0, 1]", scale)
	}
	se.eng.ProcessThresholdBatch(scale, updates)
	return nil
}

// Flush returns at once: every call has finished when it returns.
func (se *ShardedEngine) Flush() {}

// Close marks the engine closed and returns nil; a second Close is a no-op.
func (se *ShardedEngine) Close() error {
	se.closed = true
	return nil
}

func (se *ShardedEngine) mustBeOpen() {
	if se.closed {
		panic("shard: update after Close")
	}
}

// Stats returns the engine's counters and the number of events delivered.
func (se *ShardedEngine) Stats() Stats {
	s := se.eng.Stats()
	return Stats{Aggregate: s, MergedEvents: s.Events}
}

// OutputDenseCount returns the engine's number of output-dense subgraphs.
func (se *ShardedEngine) OutputDenseCount() int { return se.eng.OutputDenseCount() }
