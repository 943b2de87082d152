package stream

import (
	"time"

	"dyndens/internal/core"
	"dyndens/internal/shard"
)

// This file keeps the names of the former pipelined front-end and sharded
// replay driver that bench/par.go calls. Behind them run the sequential
// Aggregator and the ordinary Replay, in the caller's goroutine. Single-engine
// names kept only for bench/par.go (ROADMAP item 7).

// PipelineConfig is accepted and ignored: the aggregator runs in the caller's
// goroutine.
type PipelineConfig struct {
	Workers int
}

// IngestStats is the busy and stall time of the former pipelined stages.
// Nothing runs beside the caller, so every figure is 0.
type IngestStats struct {
	ExpandBusy    time.Duration
	ProducerStall time.Duration
	ConsumerStall time.Duration
}

// Pipeline is the sequential Aggregator under the front-end's name.
type Pipeline struct {
	*Aggregator
}

// NewParallelAggregator returns NewAggregator(docs, aggCfg) as a Pipeline.
func NewParallelAggregator(docs DocumentSource, aggCfg AggregatorConfig, _ PipelineConfig) (*Pipeline, error) {
	agg, err := NewAggregator(docs, aggCfg)
	if err != nil {
		return nil, err
	}
	return &Pipeline{agg}, nil
}

// Close returns nil: there is nothing to stop.
func (p *Pipeline) Close() error { return nil }

// IngestStats returns zeros (see IngestStats).
func (p *Pipeline) IngestStats() IngestStats { return IngestStats{} }

// AggregatorStats returns the aggregator's counters so far; ok is always
// true.
func (p *Pipeline) AggregatorStats() (_ AggregatorStats, ok bool) { return p.Stats(), true }

// NewShardReplay returns NewReplay(src, se.Engine(), sink): the sink se
// installed, unless sink is non-nil, which then replaces it.
func NewShardReplay(src BatchSource, se *shard.ShardedEngine, sink core.EventSink) *Replay {
	return NewReplay(src, se.Engine(), sink)
}
