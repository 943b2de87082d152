package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dyndens/internal/core"
	"dyndens/internal/persist"
	"dyndens/internal/shard"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// engine is the one place the CLI forks on -shards: a single core.Engine for
// 0, a sharded deployment of K workers otherwise. Every front door restores,
// drives, captures and summarises its engine through it.
type engine struct {
	single *core.Engine
	se     *shard.ShardedEngine
	r      *stream.Replay      // the single engine's driver, set by wire
	sr     *stream.ShardReplay // the deployment's driver, set by wire
}

func (e *engine) close() {
	if e.se != nil {
		e.se.Close()
	}
}

// wire connects src → engine → sink. A sink that takes the deployment's
// sequence-numbered stream (story.Tracker, serve.Builder) is handed that
// stream, so it sees the single engine's update boundaries.
func (e *engine) wire(src stream.UpdateSource, sink core.EventSink) {
	if e.se == nil {
		e.r = stream.NewReplay(src, e.single, sink)
		return
	}
	if ss, ok := sink.(shard.SeqSink); ok {
		e.se.SetSeqSink(ss)
		sink = nil
	}
	e.sr = stream.NewShardReplay(src, e.se, sink)
}

// replayStats is what the front doors read off either driver's statistics;
// it prints as the driver's own summary.
type replayStats struct {
	fmt.Stringer
	updates, ticks int
	perSecond      float64
}

func (e *engine) run(readBatch int, coalesce bool, hook func() error) (replayStats, error) {
	if e.r != nil {
		e.r.SetBoundaryHook(hook)
		st, err := e.r.RunBatches(readBatch, coalesce)
		return replayStats{st, st.Updates, st.Ticks, st.UpdatesPerSecond()}, err
	}
	e.sr.SetBoundaryHook(hook)
	st, err := e.sr.RunBatches(readBatch, coalesce)
	return replayStats{st, st.Updates, st.Ticks, st.UpdatesPerSecond()}, err
}

// capture captures the engine with the front-end and tracker around it (agg
// and tr may be nil); Ticks counts this process's replay ticks.
func (e *engine) capture(agg *stream.Aggregator, tr *story.Tracker) (ps *persist.PipelineState, err error) {
	var ticks int
	if e.se != nil {
		ps, err = persist.CaptureSharded(e.se, agg, tr)
		ticks = e.sr.Stats().Ticks
	} else {
		ps, err = persist.CaptureSingle(e.single, agg, tr)
		ticks = e.r.Stats().Ticks
	}
	if err != nil {
		return nil, err
	}
	ps.Ticks = uint64(ticks)
	return ps, nil
}

func (e *engine) outputDense() []core.Subgraph {
	if e.se != nil {
		return e.se.OutputDense()
	}
	return e.single.OutputDense()
}

// netOutputDense is the suffix run's sink line carries for a deployment: the
// merged output-dense count.
func (e *engine) netOutputDense() string {
	if e.se == nil {
		return ""
	}
	return fmt.Sprintf(" net-output-dense=%d", e.se.OutputDenseCount())
}

func (e *engine) summary() string {
	if e.se != nil {
		return shardedSummary(e.se.Stats())
	}
	return statsSummary(e.single.Stats())
}

// layout is what every front door decides before it opens anything: the
// engine's shard layout, the ingestion front-end and durability.
type layout struct {
	shards     int
	overlap    shard.Overlap
	aggWorkers int
	wal        walOptions
}

// layoutFlags registers the layout flags and returns their validation; name
// prefixes the command's errors.
//
// -overlap only matters with -shards > 0: scoped (the default) delivers each
// update for full processing only to interested workers, mirror broadcasts to
// all of them; both produce identical output. -agg-workers 0 keeps the serial
// in-line front-end. N > 0 switches to the bounded pipelined front-end: for
// the document commands N parallel expansion workers (parse + pair
// enumeration) feeding the order-restoring sequencer; for raw edge replay,
// which has no expansion stage, any N > 0 decouples source reads onto a
// producer goroutine. Either way the emitted update/batch stream is identical
// to the serial front-end's.
func layoutFlags(fs *flag.FlagSet) func(name string) (layout, error) {
	shards := fs.Int("shards", 0, "partition the engine across K workers (0 = single-threaded)")
	overlap := fs.String("overlap", "scoped", "sharded delivery policy: scoped (interest-tracked) or mirror (full broadcast)")
	workers := fs.Int("agg-workers", 0, "pipelined ingestion front-end: parallel document-expansion workers (0 = serial in-line front-end)")
	newWAL := walFlags(fs)
	return func(name string) (l layout, err error) {
		if *shards < 0 {
			return l, fmt.Errorf("%s: -shards must be ≥ 0, got %d", name, *shards)
		}
		// Parsed even for the single-threaded path, where the value is unused:
		// a typo'd -overlap should fail loudly regardless of -shards.
		if l.overlap, err = shard.ParseOverlap(*overlap); err != nil {
			return l, err
		}
		if *workers < 0 {
			return l, fmt.Errorf("%s: -agg-workers must be ≥ 0, got %d", name, *workers)
		}
		if l.wal, err = newWAL(); err != nil {
			return l, fmt.Errorf("%s: %w", name, err)
		}
		if l.wal.enabled() && *workers > 0 {
			return l, fmt.Errorf("%s: -wal is incompatible with -agg-workers (the WAL logs input units on the replay goroutine; a pipelined producer would race it)", name)
		}
		l.shards, l.aggWorkers = *shards, *workers
		return l, nil
	}
}

// pipeline is one front door's assembled pipeline: an update source feeding
// the engine, optionally under a WAL. The document commands add the
// co-occurrence front-end and the story tracker.
type pipeline struct {
	layout
	src    stream.UpdateSource
	engine *engine
	// agg is the serial document front-end, whose Drained boundaries are the
	// consistent snapshot points; nil for edge streams, where every boundary
	// is one, and for the pipelined front-end, which never runs under a WAL.
	agg      *stream.Aggregator
	tracker  *story.Tracker // captured with the engine; nil for edge streams
	sync     func()         // brings a sink wrapping the tracker level with it before a capture
	pst      *persist.Store // nil without -wal, and once released
	restored *persist.PipelineState
	closers  []func()
}

// openEngine builds the engine, importing the state the WAL recovered when
// there is one.
func (p *pipeline) openEngine(cfg core.Config) error {
	e := &engine{}
	var err error
	if p.shards == 0 {
		e.single, err = persist.RestoreEngine(cfg, p.restored)
	} else {
		e.se, err = persist.RestoreSharded(shard.Config{Shards: p.shards, Engine: cfg, Overlap: p.overlap}, p.restored)
	}
	if err != nil {
		return err
	}
	p.engine = e
	p.closers = append(p.closers, e.close)
	return nil
}

// drive replays the source through the engine into sink until the source
// ends or ctx is cancelled. Under a WAL the boundary hook snapshots
// periodically and, on a signal, cuts a final checkpoint and stops — both only
// at drained boundaries, where every handed-out unit has been processed
// (mid-document state is not capturable). A completed run cuts its final
// checkpoint before closing a sink with trailing state (Tracker.Close resolves
// grace windows for the final report, which must not leak into resumable
// state), then report prints the run's summary. The WAL is closed on every
// path out, so an error exit still flushes the units it logged.
func (p *pipeline) drive(ctx context.Context, sink core.EventSink, readBatch int, coalesce bool, report func(st replayStats, interrupted bool)) error {
	var base uint64 // ticks the restored state already covers
	if p.restored != nil {
		base = p.restored.Ticks
	}
	p.engine.wire(p.src, sink)
	capture := func() (*persist.PipelineState, error) {
		if p.sync != nil {
			p.sync()
		}
		ps, err := p.engine.capture(p.agg, p.tracker)
		if err != nil {
			return nil, err
		}
		ps.Ticks += base
		return ps, nil
	}
	st, err := p.engine.run(readBatch, coalesce, func() error {
		stop := ctx.Err() != nil
		switch {
		case p.pst == nil:
			if stop {
				return stream.ErrStopped
			}
			return nil
		case p.agg != nil && !p.agg.Drained():
			return nil // run on to the next drained boundary first
		case stop:
			if err := p.pst.Checkpoint(capture); err != nil {
				return err
			}
			return stream.ErrStopped
		}
		return p.pst.MaybeSnapshot(capture)
	})
	interrupted := errors.Is(err, stream.ErrStopped)
	if err == nil && p.pst != nil {
		err = p.pst.Checkpoint(capture)
	}
	if err != nil && !interrupted {
		return errors.Join(err, p.releaseWAL())
	}
	if c, ok := sink.(interface{ Close(finalSeq uint64) }); ok && !interrupted {
		c.Close(base + uint64(st.ticks))
	}
	report(st, interrupted)
	return p.closeWAL(interrupted)
}

// closeWAL prints the durability counters and releases the store; without
// one it only notes an interrupt. The resume hint tells an interrupted run
// how to pick up where the checkpoint left off.
func (p *pipeline) closeWAL(interrupted bool) error {
	if p.pst == nil {
		if interrupted {
			fmt.Println("interrupted: stopped at a batch boundary (no -wal: state not persisted)")
		}
		return nil
	}
	ws := p.pst.Stats()
	fmt.Printf("wal:    frames=%d bytes=%d snapshots=%d recovered=%d replayed=%d durable=%d\n",
		ws.FramesLogged, ws.BytesLogged, ws.SnapshotsCut, ws.RecoveredUnits, ws.ReplayedFrames, p.pst.Seq())
	if interrupted {
		fmt.Printf("interrupted: checkpoint covers unit %d; rerun with -wal %s to resume\n", p.pst.Seq(), p.wal.Dir)
	}
	return p.releaseWAL()
}

// releaseWAL closes the store once, flushing the frames it buffered.
func (p *pipeline) releaseWAL() error {
	if p.pst == nil {
		return nil
	}
	pst := p.pst
	p.pst = nil
	return pst.Close()
}

// close releases what the pipeline holds, last acquired first. A store still
// open here belongs to a run that failed before drive, which logs nothing, so
// its Close error has nothing to report.
func (p *pipeline) close() {
	p.releaseWAL()
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
}

// signalContext is cancelled by SIGINT or SIGTERM: the drivers' graceful stop.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// docFrontEnd abstracts the serial and pipelined document front-ends: both
// produce the identical update/batch stream and the same final aggregation
// counters, so the summary need not care which ran. Both are BatchSources, so
// the replay drivers consume their own epoch and document batches and never
// chunk them by a read size.
type docFrontEnd interface {
	stream.UpdateSource
	stream.BatchSource
	Stats() stream.AggregatorStats
}

// pipelineAgg adapts the parallel front-end to docFrontEnd. The sequencer
// publishes the final aggregation counters when the stream terminates, which
// is the only point the summary reads them.
type pipelineAgg struct{ *stream.Pipeline }

func (p pipelineAgg) Stats() stream.AggregatorStats {
	s, _ := p.AggregatorStats()
	return s
}

// docPipeline is the document pipeline of the paper (Section 2): documents →
// co-occurrence front-end → engine → story tracker, the tracker either the
// sink itself or wrapped by one.
type docPipeline struct {
	pipeline
	front docFrontEnd
	batch bool // -batch: coalesce each document's deltas into one tick
}

// docFlags registers the flags stories run and serve share beyond their own
// -input (whose default and help differ), and returns the step that
// validates them and opens the pipeline: the input (a file, stdin, or the
// generator when synth), the WAL bound to its fingerprint, the serial or
// pipelined front-end, and the restored tracker and engine. name prefixes the
// command's errors and tag opens its WAL fingerprint. The caller closes the
// pipeline.
func docFlags(fs *flag.FlagSet, input *string) func(name, tag string, synth bool) (*docPipeline, error) {
	batch := fs.Bool("batch", false, "coalescing: ship each document's deltas whole as one Engine.ProcessBatch (an epoch tick is one unit either way; story grace then counts batch ticks)")
	newLayout := layoutFlags(fs)
	newSynthCfg := docSynthFlags(fs)
	newAggCfg := aggregatorFlags(fs)
	newTrkCfg := trackerFlags(fs)
	newEngineCfg := engineFlags(fs, 6.5, 4)
	return func(name, tag string, synth bool) (_ *docPipeline, err error) {
		l, err := newLayout(name)
		if err != nil {
			return nil, err
		}
		engCfg, err := newEngineCfg()
		if err != nil {
			return nil, err
		}
		aggCfg, err := newAggCfg()
		if err != nil {
			return nil, err
		}
		trkCfg, err := newTrkCfg()
		if err != nil {
			return nil, err
		}

		p := &docPipeline{pipeline: pipeline{layout: l}, batch: *batch}
		defer func() {
			if err != nil {
				p.close()
			}
		}()
		var docs stream.DocumentSource
		inputID := *input // the fingerprint's input-identity component
		liveTail := false
		switch {
		case synth:
			cfg, err := newSynthCfg()
			if err != nil {
				return nil, err
			}
			gen, err := stream.NewDocSynthetic(cfg)
			if err != nil {
				return nil, err
			}
			docs = gen
			inputID = fmt.Sprintf("synth:%+v", gen.Config())
		case *input == "-":
			docs = stream.NewDocReaderSource("stdin", os.Stdin)
			liveTail = true // stdin continues at the crash point, it cannot re-read
		default:
			file, err := stream.OpenDocFile(*input)
			if err != nil {
				return nil, err
			}
			p.closers = append(p.closers, func() { file.Close() })
			docs = file
		}

		// Durability: only documents are logged. The aggregator
		// deterministically regenerates the co-occurrence updates on replay,
		// so the WAL stays small and the fingerprint must bind every knob that
		// shapes the derived stream.
		if l.wal.enabled() {
			fp := fmt.Sprintf("%s:v1:input=%s,batch=%v,shards=%d,overlap=%s,%s,%s,%s",
				tag, inputID, *batch, l.shards, l.overlap,
				aggFingerprint(aggCfg), trackerFingerprint(trkCfg), engineFingerprint(engCfg))
			if err = p.openWAL(fp, liveTail); err != nil {
				return nil, err
			}
			docs = p.pst.Docs(docs)
		}
		if l.aggWorkers == 0 {
			if p.agg, err = persist.RestoreAggregator(docs, aggCfg, p.restored); err != nil {
				return nil, err
			}
			p.front = p.agg
		} else {
			pipe, err := stream.NewParallelAggregator(docs, aggCfg, stream.PipelineConfig{Workers: l.aggWorkers})
			if err != nil {
				return nil, err
			}
			p.closers = append(p.closers, func() { pipe.Close() })
			p.front = pipelineAgg{pipe}
		}
		p.src = p.front
		if p.tracker, err = persist.RestoreTracker(trkCfg, p.restored); err != nil {
			return nil, err
		}
		if err = p.openEngine(engCfg); err != nil {
			return nil, err
		}
		return p, nil
	}
}

// report prints the summary a completed document run ends with: replay and
// aggregation statistics, the story table and the engine's work counters.
func (p *docPipeline) report(st replayStats) {
	fmt.Println(st)
	fmt.Println(p.front.Stats())
	printStoryTable(p.tracker)
	fmt.Println(p.engine.summary())
}
