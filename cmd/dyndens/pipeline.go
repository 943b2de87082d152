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
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// pipeline is one front door's assembled pipeline: an update source feeding
// the engine, optionally under a WAL. The document commands add the
// co-occurrence front-end and the story tracker.
type pipeline struct {
	wal walOptions
	src stream.UpdateSource
	eng *core.Engine
	// agg is the document front-end, whose Drained boundaries are the
	// consistent snapshot points; nil for edge streams, where every boundary
	// is one.
	agg      *stream.Aggregator
	tracker  *story.Tracker // captured with the engine; nil for edge streams
	sync     func()         // brings a sink wrapping the tracker level with it before a capture
	pst      *persist.Store // nil without -wal, and once released
	restored *persist.PipelineState
	closers  []func()
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
func (p *pipeline) drive(ctx context.Context, sink core.EventSink, readBatch int, coalesce bool, report func(st stream.ReplayStats, interrupted bool)) error {
	var base uint64 // ticks the restored state already covers
	if p.restored != nil {
		base = p.restored.Ticks
	}
	r := stream.NewReplay(p.src, p.eng, sink)
	capture := func() (*persist.PipelineState, error) {
		if p.sync != nil {
			p.sync()
		}
		ps, err := persist.CaptureSingle(p.eng, p.agg, p.tracker)
		if err != nil {
			return nil, err
		}
		ps.Ticks = base + uint64(r.Stats().Ticks)
		return ps, nil
	}
	r.SetBoundaryHook(func() error {
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
	st, err := r.RunBatches(readBatch, coalesce)
	interrupted := errors.Is(err, stream.ErrStopped)
	if err == nil && p.pst != nil {
		err = p.pst.Checkpoint(capture)
	}
	if err != nil && !interrupted {
		return errors.Join(err, p.releaseWAL())
	}
	if c, ok := sink.(interface{ Close(finalSeq uint64) }); ok && !interrupted {
		c.Close(base + uint64(st.Ticks))
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

// docPipeline is the document pipeline of the paper (Section 2): documents →
// co-occurrence front-end → engine → story tracker, the tracker either the
// sink itself or wrapped by one.
type docPipeline struct {
	pipeline
	batch bool // -batch: coalesce each document's deltas into one tick
}

// docFlags registers the flags stories run and serve share beyond their own
// -input (whose default and help differ), and returns the step that
// validates them and opens the pipeline: the input (a file, stdin, or the
// generator when synth), the WAL bound to its fingerprint, and the restored
// front-end, tracker and engine. name prefixes the command's errors and tag
// opens its WAL fingerprint. The caller closes the pipeline.
func docFlags(fs *flag.FlagSet, input *string) func(name, tag string, synth bool) (*docPipeline, error) {
	batch := fs.Bool("batch", false, "coalescing: ship each document's deltas whole as one Engine.ProcessBatch (an epoch tick is one unit either way; story grace then counts batch ticks)")
	newWAL := walFlags(fs)
	newSynthCfg := docSynthFlags(fs)
	newAggCfg := aggregatorFlags(fs)
	newTrkCfg := trackerFlags(fs)
	newEngineCfg := engineFlags(fs, 6.5, 4)
	return func(name, tag string, synth bool) (_ *docPipeline, err error) {
		wal, err := newWAL()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
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

		p := &docPipeline{pipeline: pipeline{wal: wal}, batch: *batch}
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
		if wal.enabled() {
			fp := fmt.Sprintf("%s:v1:input=%s,batch=%v,%s,%s,%s,%s",
				tag, inputID, *batch, engineLayout,
				aggFingerprint(aggCfg), trackerFingerprint(trkCfg), engineFingerprint(engCfg))
			if err = p.openWAL(fp, liveTail); err != nil {
				return nil, err
			}
			docs = p.pst.Docs(docs)
		}
		if p.agg, err = persist.RestoreAggregator(docs, aggCfg, p.restored); err != nil {
			return nil, err
		}
		p.src = p.agg
		if p.tracker, err = persist.RestoreTracker(trkCfg, p.restored); err != nil {
			return nil, err
		}
		if p.eng, err = persist.RestoreEngine(engCfg, p.restored); err != nil {
			return nil, err
		}
		return p, nil
	}
}

// report prints the summary a completed document run ends with: replay and
// aggregation statistics, the story table and the engine's work counters.
func (p *docPipeline) report(st stream.ReplayStats) {
	fmt.Println(st)
	fmt.Println(p.agg.Stats())
	printStoryTable(p.tracker)
	fmt.Println(statsSummary(p.eng.Stats()))
}
