package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/persist"
	"dyndens/internal/serve"
	"dyndens/internal/shard"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// serveTestHooks lets the CLI tests observe the bound address and trigger a
// shutdown without signals. Both are nil outside tests.
var (
	serveListenerReady func(addr net.Addr)
	serveShutdown      chan struct{}
)

// serveReadHeaderTimeout bounds how long a client may take to send its
// request line and headers; serveIdleTimeout how long a keep-alive connection
// may sit between requests.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// newHTTPServer is the story service's http.Server. A client that stalls
// inside its request head is disconnected after readHeader, and an idle
// keep-alive connection after serveIdleTimeout, so neither holds a connection
// and its goroutine forever. There is deliberately no WriteTimeout: /events
// is a long-lived SSE stream.
func newHTTPServer(h http.Handler, readHeader time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: serveIdleTimeout}
}

// cmdServe is the long-lived story service: it ingests a document stream
// (file, stdin, or the synthetic generator) through the aggregation → engine
// → story-tracking pipeline while serving the current story table over HTTP
// the whole time. The writer publishes an immutable snapshot of the table at
// every update boundary that changes it, so concurrent readers always see an
// internally consistent state and never block ingestion.
//
// Endpoints: /healthz, /stats, /stories/top?k=, /stories/{id},
// /entities/{e}, and /events (SSE lifecycle stream). By default the server
// keeps serving the final table after the input is exhausted; -exit-after-ingest
// shuts down once ingestion (plus -linger) completes, for scripted runs.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("dyndens serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address (host:port; port 0 picks a free one)")
	input := fs.String("input", "", "document stream path (- for stdin); empty = generate with -synth flags")
	batchMode := fs.Bool("batch", false, "coalescing: ship each document's deltas whole as one Engine.ProcessBatch (an epoch tick is one unit either way; story grace then counts batch ticks)")
	shards := fs.Int("shards", 0, "partition the engine across K workers (0 = single-threaded)")
	newOverlap := overlapFlag(fs)
	newAggWorkers := aggWorkersFlag(fs)
	quiet := fs.Bool("quiet", false, "suppress the streaming lifecycle log on stdout")
	exitAfter := fs.Bool("exit-after-ingest", false, "shut down once the input is exhausted instead of serving the final table indefinitely")
	linger := fs.Duration("linger", 0, "with -exit-after-ingest: keep serving this long after ingestion completes")
	newSynthCfg := docSynthFlags(fs)
	newAggCfg := aggregatorFlags(fs)
	newTrkCfg := trackerFlags(fs)
	newEngineCfg := engineFlags(fs, 6.5, 4)
	newWAL := walFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectPositionalArgs(fs, "dyndens serve"); err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("serve: -shards must be ≥ 0, got %d", *shards)
	}
	if _, err := newOverlap(); err != nil {
		return err
	}
	aggWorkers, err := newAggWorkers()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	walOpts, err := newWAL()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if walOpts.enabled() && aggWorkers > 0 {
		return fmt.Errorf("serve: -wal is incompatible with -agg-workers (the WAL logs documents on the replay goroutine; a pipelined producer would race it)")
	}
	engCfg, err := newEngineCfg()
	if err != nil {
		return err
	}
	aggCfg, err := newAggCfg()
	if err != nil {
		return err
	}
	trkCfg, err := newTrkCfg()
	if err != nil {
		return err
	}

	var docs stream.DocumentSource
	inputID := *input // the fingerprint's input-identity component
	liveTail := false
	switch {
	case *input == "":
		cfg, err := newSynthCfg()
		if err != nil {
			return err
		}
		gen, err := stream.NewDocSynthetic(cfg)
		if err != nil {
			return err
		}
		docs = gen
		inputID = fmt.Sprintf("synth:%+v", gen.Config())
	case *input == "-":
		docs = stream.NewDocReaderSource("stdin", os.Stdin)
		liveTail = true // stdin continues at the crash point, it cannot re-read
	default:
		f, err := stream.OpenDocFile(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		docs = f
	}

	// Durability: identical to stories run — documents are the WAL unit, the
	// fingerprint binds everything shaping the derived stream, and recovery
	// resumes serving with story identities intact.
	var pst *persist.Store
	var restored *persist.PipelineState
	if walOpts.enabled() {
		overlap, err := newOverlap()
		if err != nil {
			return err
		}
		fp := fmt.Sprintf("serve:v1:input=%s,batch=%v,shards=%d,overlap=%s,%s,%s,%s",
			inputID, *batchMode, *shards, overlap,
			aggFingerprint(aggCfg), trackerFingerprint(trkCfg), engineFingerprint(engCfg))
		if pst, err = openWAL(walOpts, fp, liveTail); err != nil {
			return err
		}
		restored = pst.Restored()
		docs = pst.Docs(docs)
	}

	var front docFrontEnd
	var agg *stream.Aggregator
	closeFront := func() {}
	if pst != nil {
		// The persisted path pins the serial in-line aggregator; see
		// cmdStoriesRun.
		if agg, err = persist.RestoreAggregator(docs, aggCfg, restored); err != nil {
			return err
		}
		front = agg
	} else if front, closeFront, err = newDocFrontEnd(docs, aggCfg, aggWorkers); err != nil {
		return err
	}
	defer closeFront()
	tracker, err := persist.RestoreTracker(trkCfg, restored)
	if err != nil {
		return err
	}
	baseTicks := uint64(0)
	if pst != nil {
		baseTicks = pst.BaseTicks()
	}

	// The engines are built (and restored) up front: a recovered serving table
	// needs the restored engine's output densities before the first snapshot
	// publishes.
	var eng *core.Engine
	var se *shard.ShardedEngine
	if *shards > 0 {
		overlap, err := newOverlap()
		if err != nil {
			return err
		}
		if se, err = persist.RestoreSharded(shard.Config{Shards: *shards, Engine: engCfg, Overlap: overlap}, restored); err != nil {
			return err
		}
		defer se.Close()
	} else if eng, err = persist.RestoreEngine(engCfg, restored); err != nil {
		return err
	}

	var bld *serve.Builder
	if restored != nil && restored.Tracker != nil {
		var dense []core.Subgraph
		if se != nil {
			dense = se.OutputDense()
		} else {
			dense = eng.OutputDense()
		}
		bld = serve.NewBuilderFromState(tracker, dense)
	} else {
		bld = serve.NewBuilder(tracker)
	}
	if se != nil {
		se.SetSeqSink(bld)
	}
	hub := serve.NewHub()
	if *quiet {
		bld.SetRecordSink(hub.Publish)
	} else {
		bld.SetRecordSink(func(r story.Record) {
			fmt.Println(r)
			hub.Publish(r)
		})
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving on http://%s\n", ln.Addr())
	if serveListenerReady != nil {
		serveListenerReady(ln.Addr())
	}

	// ingestState feeds the /stats "writer" block; the final summary is
	// attached once ingestion completes.
	type ingestSummary struct {
		Complete         bool    `json:"complete"`
		Updates          int     `json:"updates,omitempty"`
		Ticks            int     `json:"ticks,omitempty"`
		UpdatesPerSecond float64 `json:"updates_per_second,omitempty"`
	}
	var ingestState atomic.Pointer[ingestSummary]
	ingestState.Store(&ingestSummary{})

	srv := serve.NewServer(bld.View(), hub)
	srv.Extra = func() any { return ingestState.Load() }
	httpSrv := newHTTPServer(srv.Handler(), serveReadHeaderTimeout)
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(ln) }()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// serveHook is the per-batch boundary hook (see cmdStoriesRun): graceful
	// stop on a signal, periodic background snapshots — both only at drained
	// boundaries, with the builder synced so the serving view and the captured
	// tracker fold the same boundary.
	serveHook := func(capture func() (*persist.PipelineState, error)) func() error {
		return func() error {
			if ctx.Err() != nil {
				if pst == nil {
					return stream.ErrStopped
				}
				if !agg.Drained() {
					return nil // run on to the next drained boundary first
				}
				if err := pst.Checkpoint(capture); err != nil {
					return err
				}
				return stream.ErrStopped
			}
			if pst != nil && agg.Drained() {
				return pst.MaybeSnapshot(capture)
			}
			return nil
		}
	}

	// The writer goroutine owns the whole ingestion pipeline (and the WAL
	// store — Close must happen on the producer goroutine); the builder
	// publishes snapshots at update boundaries, so the HTTP readers and the
	// SSE hub observe the stream live.
	ingestDone := make(chan error, 1)
	go func() {
		var summarize func()
		var err error
		var interrupted bool
		if se != nil {
			r := stream.NewShardReplay(front, se, nil)
			capture := func() (*persist.PipelineState, error) {
				bld.Sync()
				ps, cerr := persist.CaptureSharded(se, agg, tracker)
				if cerr != nil {
					return nil, cerr
				}
				ps.Ticks = baseTicks + uint64(r.Stats().Ticks)
				return ps, nil
			}
			r.SetBoundaryHook(serveHook(capture))
			// The front-end is a BatchSource; see cmdStoriesRun.
			var st stream.ShardReplayStats
			st, err = r.RunBatches(0, *batchMode)
			interrupted = errors.Is(err, stream.ErrStopped)
			if err == nil {
				// Checkpoint before Builder.Close: Close resolves grace
				// windows for the final table, which must not leak into
				// resumable state.
				if cerr := checkpointWAL(pst, interrupted, capture); cerr != nil {
					ingestDone <- cerr
					return
				}
				bld.Close(baseTicks + uint64(st.Ticks))
				ingestState.Store(&ingestSummary{Complete: true, Updates: st.Updates, Ticks: st.Ticks, UpdatesPerSecond: st.UpdatesPerSecond()})
				summarize = func() {
					fmt.Println(st)
					fmt.Println(front.Stats())
					printStoryTable(tracker)
					fmt.Println(shardedSummary(se.Stats()))
				}
			}
		} else {
			r := stream.NewReplay(front, eng, bld)
			capture := func() (*persist.PipelineState, error) {
				bld.Sync()
				ps, cerr := persist.CaptureSingle(eng, agg, tracker)
				if cerr != nil {
					return nil, cerr
				}
				ps.Ticks = baseTicks + uint64(r.Stats().Ticks)
				return ps, nil
			}
			r.SetBoundaryHook(serveHook(capture))
			var st stream.ReplayStats
			st, err = r.RunBatches(0, *batchMode)
			interrupted = errors.Is(err, stream.ErrStopped)
			if err == nil {
				// See the sharded path: checkpoint precedes Builder.Close.
				if cerr := checkpointWAL(pst, interrupted, capture); cerr != nil {
					ingestDone <- cerr
					return
				}
				bld.Close(baseTicks + uint64(st.Ticks))
				ingestState.Store(&ingestSummary{Complete: true, Updates: st.Updates, Ticks: st.Ticks, UpdatesPerSecond: st.UpdatesPerSecond()})
				summarize = func() {
					fmt.Println(st)
					fmt.Println(front.Stats())
					printStoryTable(tracker)
					fmt.Println(engineSummary(eng))
				}
			}
		}
		if err != nil && !interrupted {
			ingestDone <- err
			return
		}
		if summarize != nil {
			summarize()
		}
		ingestDone <- closeWALStore(pst, walOpts, interrupted)
	}()

	shutdown := func() error {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(sctx)
	}

	var ingestErr error
	select {
	case <-ctx.Done():
		// Interrupted mid-ingest: the boundary hook stops the writer at the
		// next drained boundary (cutting a final checkpoint when persisting).
		// Wait for it — bounded, in case the input stalls — then stop serving.
		select {
		case ingestErr = <-ingestDone:
		case <-time.After(5 * time.Second):
			fmt.Fprintln(os.Stderr, "serve: writer did not reach a stop boundary within 5s; shutting down without it")
		}
		if err := shutdown(); err != nil {
			return err
		}
		return ingestErr
	case <-serveShutdown:
		return shutdown()
	case ingestErr = <-ingestDone:
		if ingestErr != nil {
			shutdown()
			return ingestErr
		}
	}

	if *exitAfter {
		if *linger > 0 {
			select {
			case <-time.After(*linger):
			case <-ctx.Done():
			}
		}
		return shutdown()
	}
	fmt.Println("ingestion complete; serving the final table (interrupt to stop)")
	select {
	case <-ctx.Done():
	case <-serveShutdown:
	case err := <-httpDone:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	return shutdown()
}
