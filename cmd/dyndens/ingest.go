package main

import (
	"flag"
	"fmt"

	"dyndens/internal/stream"
)

// aggWorkersFlag registers the pipelined-ingestion flag shared by the replay
// drivers. 0 keeps the serial in-line front-end. N > 0 switches to the
// bounded pipelined front-end: for the document commands that is N parallel
// expansion workers (parse + pair enumeration) feeding the order-restoring
// sequencer; for raw edge replay, which has no expansion stage, any N > 0
// decouples source reads onto a producer goroutine. Either way the emitted
// update/batch stream is identical to the serial front-end's.
func aggWorkersFlag(fs *flag.FlagSet) func() (int, error) {
	w := fs.Int("agg-workers", 0, "pipelined ingestion front-end: parallel document-expansion workers (0 = serial in-line front-end)")
	return func() (int, error) {
		if *w < 0 {
			return 0, fmt.Errorf("-agg-workers must be ≥ 0, got %d", *w)
		}
		return *w, nil
	}
}

// docFrontEnd abstracts the serial and pipelined document front-ends for the
// drivers: both produce the identical update/batch stream and the same final
// aggregation counters, so the summary path need not care which ran. Both are
// BatchSources, so the replay drivers consume their own epoch and document
// batches and never chunk them by a read size.
type docFrontEnd interface {
	stream.UpdateSource
	stream.BatchSource
	Stats() stream.AggregatorStats
}

// pipelineAgg adapts the parallel front-end to docFrontEnd. The sequencer
// publishes the final aggregation counters when the stream terminates, which
// is the only point the drivers read them.
type pipelineAgg struct{ *stream.Pipeline }

func (p pipelineAgg) Stats() stream.AggregatorStats {
	s, _ := p.AggregatorStats()
	return s
}

// newDocFrontEnd builds the document → co-occurrence-update front-end: the
// serial in-line aggregator for workers == 0, the pipelined parallel one
// otherwise. The returned cleanup releases the pipeline goroutines (a no-op
// for the serial front-end); it is safe to call after a drained stream.
func newDocFrontEnd(docs stream.DocumentSource, aggCfg stream.AggregatorConfig, workers int) (docFrontEnd, func(), error) {
	if workers <= 0 {
		agg, err := stream.NewAggregator(docs, aggCfg)
		if err != nil {
			return nil, nil, err
		}
		return agg, func() {}, nil
	}
	pipe, err := stream.NewParallelAggregator(docs, aggCfg, stream.PipelineConfig{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	return pipelineAgg{pipe}, func() { pipe.Close() }, nil
}
