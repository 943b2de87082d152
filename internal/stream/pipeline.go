package stream

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"dyndens/internal/vset"
)

// This file is the pipelined ingestion front-end: it decouples the
// document→update production stages from the engine that consumes them, so
// expansion of document t+1 overlaps engine processing of tick t, and — for
// document streams — fans the parse + O(m²) pair-enumeration work out to W
// expansion workers while a sequencer applies all aggregation state mutations
// in document order.
//
// The determinism contract is the whole point: a Pipeline emits the exact
// batch sequence its serial counterpart would (same updates in the same
// groups, same Decay flags, same ThresholdUpdate units, same retirement and
// renormalization order), because the sequencer drives the same Aggregator
// code (ingestExpanded + NextBatch) over expansions that are pure functions
// of each document. Parallelism changes when work happens, never what is
// emitted.
//
// Goroutines start lazily on the first NextBatch, so building a Pipeline is
// free and timing loops that wrap the first pull measure the whole pipeline.
// The handoff queue is bounded (PipelineConfig.Depth), giving backpressure:
// a slow engine stalls the producer (recorded as ProducerStall) rather than
// buffering the stream.

// PipelineConfig configures the pipelined ingestion front-end. Kept only for
// bench/par.go, ROADMAP item 7.
type PipelineConfig struct {
	// Workers is the number of parallel expansion workers; ≤ 0 defaults to
	// GOMAXPROCS.
	Workers int
	// Depth bounds the engine handoff queue in batches: the front-end gets at
	// most Depth batches ahead of the engine before stalling. ≤ 0 defaults
	// to 8 — enough to ride out batch-cost jitter, small enough that the
	// buffered stream stays cache-resident.
	Depth int
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Depth <= 0 {
		c.Depth = 8
	}
	return c
}

// IngestStats is the per-stage busy/stall accounting of a pipelined
// front-end. Busy times are summed per stage (ExpandBusy across all workers),
// so on a multi-core box stage busy totals can exceed wall clock; the two
// stall counters say which side of the handoff is the bottleneck.
type IngestStats struct {
	Workers int // expansion workers
	Depth   int // handoff queue bound, in batches
	Batches int // batches delivered to the consumer

	// SourceBusy is reader time spent pulling documents or lines from the
	// underlying source.
	SourceBusy time.Duration
	// ExpandBusy is summed worker time parsing documents and enumerating
	// pair keys.
	ExpandBusy time.Duration
	// ApplyBusy is sequencer time in the sequential aggregation core: weight
	// table mutations, retirement-heap re-keys, λ ticks, batch assembly.
	ApplyBusy time.Duration
	// ProducerStall is front-end time blocked on a full handoff queue — the
	// engine is the bottleneck.
	ProducerStall time.Duration
	// ConsumerStall is consumer time blocked on an empty handoff queue — the
	// front-end is the bottleneck.
	ConsumerStall time.Duration
}

// String formats the one-line summary printed by the CLI drivers.
func (s IngestStats) String() string {
	return fmt.Sprintf("ingest{workers=%d depth=%d batches=%d source=%v expand=%v apply=%v prod-stall=%v cons-stall=%v}",
		s.Workers, s.Depth, s.Batches,
		s.SourceBusy.Round(time.Microsecond), s.ExpandBusy.Round(time.Microsecond),
		s.ApplyBusy.Round(time.Microsecond),
		s.ProducerStall.Round(time.Microsecond), s.ConsumerStall.Round(time.Microsecond))
}

// ingestReporter is implemented by sources that carry pipeline stage stats;
// the replay drivers probe for it when assembling their final statistics.
type ingestReporter interface {
	IngestStats() IngestStats
}

// outItem is one handoff-queue entry: a batch with its updates copied into a
// pipeline-owned buffer and its threshold unit captured by value (the serial
// aggregator reuses both backing stores per document, so handing out aliases
// across the queue would tear). A terminal item carries err instead.
type outItem struct {
	updates []Update
	decay   bool
	hasThr  bool
	thr     ThresholdUpdate
	err     error
}

// expandJob is one document moving through the parallel front-end. All
// slices are job-owned scratch reused across the job pool.
type expandJob struct {
	seq    uint64
	parsed bool   // time/ents already populated by the reader (non-raw source)
	raw    []byte // unparsed line (raw-capable sources); workers parse it
	line   int
	time   int64
	ents   []vset.Vertex
	pairs  []pairKey
	err    error // terminal source error (io.EOF) or a parse error
}

// Pipeline is a bounded, backpressure-safe ingestion front-end. It is an
// UpdateSource and a BatchSource, so it slots into Replay/ShardReplay (and
// AsBatchSource) wherever the serial source did; it is single-consumer, like
// every source in this package. Construct one with NewParallelAggregator
// (document expansion fanned out to W workers). Kept only for bench/par.go,
// ROADMAP item 7.
//
// Batches returned by NextBatch are valid until the next NextBatch call,
// matching the BatchSource contract. Close releases the goroutines; it is
// safe (and cheap) to call even if the stream was fully drained, after which
// the pipeline shuts down by itself.
type Pipeline struct {
	cfg  PipelineConfig
	ring int    // reorder ring size = max in-flight documents
	boot func() // producer bootstrap, run once on first pull
	once sync.Once

	out       chan outItem
	free      chan []Update // recycled update buffers
	quit      chan struct{}
	closeOnce sync.Once

	// reader → workers → sequencer plumbing
	jobs    chan *expandJob
	results chan *expandJob
	jobPool chan *expandJob
	tokens  chan struct{} // in-flight document bound, pre-filled with ring

	// consumer-side state (single consumer; no locking needed)
	cur      outItem
	thrStore ThresholdUpdate // re-materialized per batch so &thrStore is stable until the next pull
	nextBuf  []Update        // Next() cursor over the current batch
	nextPos  int
	err      error
	done     bool

	sourceBusy atomic.Int64
	expandBusy atomic.Int64
	applyBusy  atomic.Int64
	prodStall  atomic.Int64
	consStall  atomic.Int64
	batches    atomic.Int64
	aggStats   atomic.Pointer[AggregatorStats]
}

// NewParallelAggregator builds the parallel document front-end: a reader
// goroutine pulls documents (raw lines, for line-oriented sources like
// DocFileSource, moving even the parse off the reader), cfg.Workers expansion
// workers parse and enumerate pair keys concurrently, and a sequencer applies
// the sequential aggregation core in document order and emits the batch
// stream. The emitted stream is identical to MustAggregator(docs,
// aggCfg).NextBatch()'s — the sequencer runs the same code over the same
// inputs in the same order; only the expansion (a pure per-document
// computation) runs concurrently. Kept only for bench/par.go, ROADMAP item 7.
func NewParallelAggregator(docs DocumentSource, aggCfg AggregatorConfig, cfg PipelineConfig) (*Pipeline, error) {
	// The aggregator is fed pre-expanded documents by the sequencer and never
	// pulls from a DocumentSource itself — the reader owns the source.
	agg, err := NewAggregator(nil, aggCfg)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ring := max(4, 2*cfg.Workers)
	p := &Pipeline{
		cfg:     cfg,
		ring:    ring,
		out:     make(chan outItem, cfg.Depth),
		free:    make(chan []Update, cfg.Depth+2),
		quit:    make(chan struct{}),
		jobs:    make(chan *expandJob, ring),
		results: make(chan *expandJob, ring),
		jobPool: make(chan *expandJob, ring),
		tokens:  make(chan struct{}, ring),
	}
	for i := 0; i < p.ring; i++ {
		p.tokens <- struct{}{}
	}
	p.boot = func() { p.startParallel(docs, agg) }
	return p, nil
}

// Config returns the effective pipeline configuration (defaults applied).
func (p *Pipeline) Config() PipelineConfig { return p.cfg }

// NextBatch implements BatchSource. The first call starts the producer
// goroutines; the returned batch is valid until the next call.
func (p *Pipeline) NextBatch() (Batch, error) {
	p.once.Do(p.boot)
	if p.done {
		return Batch{}, p.err
	}
	if p.cur.updates != nil {
		// The previous batch is dead per the BatchSource contract; recycle
		// its buffer to the producer.
		select {
		case p.free <- p.cur.updates[:0]:
		default:
		}
		p.cur.updates = nil
	}
	var it outItem
	var ok bool
	select {
	case it, ok = <-p.out:
	default:
		start := time.Now()
		it, ok = <-p.out
		p.consStall.Add(int64(time.Since(start)))
	}
	if !ok || it.err != nil {
		p.done = true
		p.err = io.EOF // closed without a terminal item: treat as exhausted
		if it.err != nil {
			p.err = it.err
		}
		return Batch{}, p.err
	}
	p.cur = it
	p.batches.Add(1)
	b := Batch{Updates: it.updates, Decay: it.decay}
	if it.hasThr {
		p.thrStore = it.thr
		b.Threshold = &p.thrStore
	}
	return b, nil
}

// Next implements UpdateSource by cursoring over the batch stream. A
// document stream cannot be consumed per-update once fading ticks: hitting a
// threshold batch unit returns ErrNeedBatch, as the serial aggregator's Next
// always does.
func (p *Pipeline) Next() (Update, error) {
	for p.nextPos >= len(p.nextBuf) {
		b, err := p.NextBatch()
		if err != nil {
			return Update{}, err
		}
		if b.Threshold != nil {
			return Update{}, ErrNeedBatch
		}
		p.nextBuf, p.nextPos = b.Updates, 0
	}
	u := p.nextBuf[p.nextPos]
	p.nextPos++
	return u, nil
}

// Close stops the producer goroutines. Safe to call at any time, more than
// once, and concurrently with a blocked producer; after Close the stream is
// over (NextBatch drains any already-queued batches, then reports io.EOF).
func (p *Pipeline) Close() error {
	p.closeOnce.Do(func() { close(p.quit) })
	return nil
}

// IngestStats returns the per-stage accounting so far. It is safe to call
// mid-stream; the numbers are monotone.
func (p *Pipeline) IngestStats() IngestStats {
	return IngestStats{
		Workers:       p.cfg.Workers,
		Depth:         p.cfg.Depth,
		Batches:       int(p.batches.Load()),
		SourceBusy:    time.Duration(p.sourceBusy.Load()),
		ExpandBusy:    time.Duration(p.expandBusy.Load()),
		ApplyBusy:     time.Duration(p.applyBusy.Load()),
		ProducerStall: time.Duration(p.prodStall.Load()),
		ConsumerStall: time.Duration(p.consStall.Load()),
	}
}

// AggregatorStats returns the final aggregation counters of a parallel
// aggregator pipeline, available once the stream has terminated (EOF or
// error). ok is false mid-stream.
func (p *Pipeline) AggregatorStats() (AggregatorStats, bool) {
	if s := p.aggStats.Load(); s != nil {
		return *s, true
	}
	return AggregatorStats{}, false
}

// takeBuf returns a recycled update buffer, or nil (append grows it).
func (p *Pipeline) takeBuf() []Update {
	select {
	case b := <-p.free:
		return b[:0]
	default:
		return nil
	}
}

// send queues it for the consumer, recording time blocked on a full queue as
// producer stall. It reports false when the pipeline is closing.
func (p *Pipeline) send(it outItem) bool {
	select {
	case p.out <- it:
		return true
	case <-p.quit:
		return false
	default:
	}
	start := time.Now()
	select {
	case p.out <- it:
		p.prodStall.Add(int64(time.Since(start)))
		return true
	case <-p.quit:
		p.prodStall.Add(int64(time.Since(start)))
		return false
	}
}

// emit copies b into pipeline-owned storage and queues it.
func (p *Pipeline) emit(b Batch) bool {
	it := outItem{updates: append(p.takeBuf(), b.Updates...), decay: b.Decay}
	if b.Threshold != nil {
		it.hasThr, it.thr = true, *b.Threshold
	}
	return p.send(it)
}

// startParallel launches the parallel document front-end: reader → workers →
// sequencer. Stages carry pprof labels (stage=parse/expand/apply) so CPU
// profiles attribute time per pipeline stage; the engine runs unlabelled on
// the consumer's goroutine.
func (p *Pipeline) startParallel(docs DocumentSource, agg *Aggregator) {
	raw, _ := docs.(rawDocLiner)
	name := ""
	if raw != nil {
		name = raw.sourceName()
	}
	go pprof.Do(context.Background(), pprof.Labels("stage", "parse"), func(context.Context) {
		p.runReader(docs, raw)
	})
	var wg sync.WaitGroup
	wg.Add(p.cfg.Workers)
	for i := 0; i < p.cfg.Workers; i++ {
		go pprof.Do(context.Background(), pprof.Labels("stage", "expand"), func(context.Context) {
			defer wg.Done()
			p.runWorker(name)
		})
	}
	go func() {
		wg.Wait()
		close(p.results)
	}()
	go pprof.Do(context.Background(), pprof.Labels("stage", "apply"), func(context.Context) {
		p.runSequencer(agg)
	})
}

// runReader pulls documents (or raw lines) on a dedicated goroutine and
// issues sequence-numbered expansion jobs. The token channel bounds in-flight
// documents to the reorder ring size. The stream's terminal error — io.EOF
// or a source failure — rides the last job through the same ordered path, so
// the consumer sees it only after every prior document's batches.
func (p *Pipeline) runReader(docs DocumentSource, raw rawDocLiner) {
	defer close(p.jobs)
	var seq uint64
	for {
		select {
		case <-p.tokens:
		case <-p.quit:
			return
		}
		j := p.takeJob()
		j.seq = seq
		seq++
		start := time.Now()
		if raw != nil {
			text, line, err := raw.rawDocLine()
			p.sourceBusy.Add(int64(time.Since(start)))
			if err != nil {
				j.err = err
				p.sendJob(j)
				return
			}
			j.raw = append(j.raw[:0], text...)
			j.line = line
			j.parsed = false
		} else {
			doc, err := docs.Next()
			p.sourceBusy.Add(int64(time.Since(start)))
			if err != nil {
				j.err = err
				p.sendJob(j)
				return
			}
			// Copy: the DocumentSource contract lets the source reuse the
			// entity backing array on its next Next call.
			j.time = doc.Time
			j.ents = append(j.ents[:0], doc.Entities...)
			j.parsed = true
		}
		if !p.sendJob(j) {
			return
		}
	}
}

func (p *Pipeline) sendJob(j *expandJob) bool {
	select {
	case p.jobs <- j:
		return true
	case <-p.quit:
		return false
	}
}

// runWorker parses (raw mode) and pair-expands jobs. Expansion is a pure
// function of the document, so any worker may handle any job; order is
// restored by the sequencer. Terminal/error jobs pass through untouched.
func (p *Pipeline) runWorker(srcName string) {
	for j := range p.jobs {
		if j.err == nil {
			start := time.Now()
			if !j.parsed {
				ts, ents, err := parseDocumentInto(j.raw, j.ents[:0])
				if err != nil {
					j.err = fmt.Errorf("%s:%d: %w", srcName, j.line, err)
				} else {
					j.time = ts
					j.ents = ents
				}
			}
			if j.err == nil {
				j.pairs = appendDocPairs(j.pairs[:0], j.ents)
			}
			p.expandBusy.Add(int64(time.Since(start)))
		}
		select {
		case p.results <- j:
		case <-p.quit:
			return
		}
	}
}

// runSequencer restores document order with a seq-indexed ring and drives the
// sequential aggregation core: every weight-table mutation, retirement-heap
// re-key, and λ tick happens here, in document order, via the same
// ingestExpanded + NextBatch code the serial aggregator runs — which is the
// bit-identity argument. An error job (terminal EOF, source failure, or a
// worker parse error) is handled at its position in document order, exactly
// where the serial aggregator would have surfaced it.
func (p *Pipeline) runSequencer(agg *Aggregator) {
	defer close(p.out)
	ring := make([]*expandJob, p.ring)
	slots := uint64(p.ring)
	next := uint64(0)
	for j := range p.results {
		ring[j.seq%slots] = j
		for ring[next%slots] != nil {
			cur := ring[next%slots]
			ring[next%slots] = nil
			next++
			if cur.err != nil {
				p.finish(agg, cur.err)
				return
			}
			start := time.Now()
			err := agg.ingestExpanded(cur.time, cur.pairs)
			p.applyBusy.Add(int64(time.Since(start)))
			p.recycleJob(cur)
			if err != nil {
				p.finish(agg, err)
				return
			}
			// Drain the document's queued groups through the aggregator's own
			// batch emission (threshold group, then the document's pairs) —
			// NextBatch ingests only once the aggregator is Drained, so no
			// further document is pulled here.
			for !agg.Drained() {
				b, _ := agg.NextBatch()
				if !p.emit(b) {
					return
				}
			}
		}
	}
	// Defensive: the reader always terminates the stream with an error job,
	// so a closed results channel without one means shutdown was external.
	p.finish(agg, io.EOF)
}

// finish publishes the final aggregator counters, queues the terminal item,
// and unwinds the front-end goroutines (the reader keeps producing after a
// mid-stream parse error otherwise).
func (p *Pipeline) finish(agg *Aggregator, err error) {
	s := agg.Stats()
	p.aggStats.Store(&s)
	p.send(outItem{err: err})
	p.closeOnce.Do(func() { close(p.quit) })
}

func (p *Pipeline) takeJob() *expandJob {
	select {
	case j := <-p.jobPool:
		return j
	default:
		return &expandJob{}
	}
}

func (p *Pipeline) recycleJob(j *expandJob) {
	j.err = nil
	select {
	case p.jobPool <- j:
	default:
	}
	select {
	case p.tokens <- struct{}{}:
	default: // capacity == ring ≥ in-flight bound; never hit
	}
}
