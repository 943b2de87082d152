package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"dyndens/internal/core"
	"dyndens/internal/persist"
	"dyndens/internal/shard"
	"dyndens/internal/stream"
	"dyndens/internal/vset"
)

// cmdRun replays a recorded update stream (file or stdin) through the engine
// — single-threaded by default, sharded across K workers with -shards K —
// streaming the output-dense changes that pass the configured filter to
// stdout, and prints the throughput and engine summary at the end. The
// stream is read in batches: "%%" marker lines in the input delimit them, and
// a run of more than -read-batch updates is split. With -batch each batch is
// coalesced (Engine.ProcessBatch) into one logical tick whose reported events
// are its net transitions; without it every update is its own tick.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("dyndens run", flag.ExitOnError)
	input := fs.String("input", "-", "update stream path (- for stdin), edge-list `a b delta` lines")
	batch := fs.Int("read-batch", 256, "maximum replay batch size: runs between `%%` lines are split at this many updates")
	batchMode := fs.Bool("batch", false, "coalesce batches through Engine.ProcessBatch (batches delimited by `%%` lines, split at -read-batch; net events per batch)")
	shards := fs.Int("shards", 0, "partition the engine across K workers (0 = single-threaded)")
	newOverlap := overlapFlag(fs)
	newAggWorkers := aggWorkersFlag(fs)
	quiet := fs.Bool("quiet", false, "suppress per-event output, print only the summary")
	minCard := fs.Int("min-card", 0, "only report subgraphs with at least this many vertices")
	watch := fs.String("watch", "", "comma-separated vertex watchlist; only report subgraphs containing one")
	newEngineCfg := engineFlags(fs, 3, 5)
	newWAL := walFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectPositionalArgs(fs, "dyndens run"); err != nil {
		return err
	}

	engCfg, err := newEngineCfg()
	if err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("run: -shards must be ≥ 0, got %d", *shards)
	}
	// Validate even for the single-threaded path, where the value is unused —
	// a typo'd -overlap should fail loudly regardless of -shards.
	if _, err := newOverlap(); err != nil {
		return err
	}
	aggWorkers, err := newAggWorkers()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	walOpts, err := newWAL()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if walOpts.enabled() && aggWorkers > 0 {
		return fmt.Errorf("run: -wal is incompatible with -agg-workers (the WAL logs units on the replay goroutine; a pipelined producer would race it)")
	}
	watchSet, err := parseWatchlist(*watch)
	if err != nil {
		return err
	}

	var src stream.UpdateSource
	var fileSrc *stream.FileSource
	if *input == "-" {
		fileSrc = stream.NewReaderSource("stdin", os.Stdin)
	} else {
		f, err := stream.OpenFile(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		fileSrc = f
	}
	// Memory guard: a marker-less stream is one whole-stream batch, so cap
	// batches at the read size — runs longer than -read-batch split into
	// batches (and, with -batch, ticks) of their own. SetMaxBatch treats n ≤ 0
	// as "no cap", which would silently disable the guard, so reject it. The
	// pipelined front-end's handoff unit and the WAL's frame unit are the
	// source batch too: the cap bounds one queue entry, and it makes the
	// framing a deterministic function of -read-batch.
	if *batch <= 0 {
		return fmt.Errorf("run: -read-batch must be positive, got %d", *batch)
	}
	fileSrc.SetMaxBatch(*batch)
	src = fileSrc
	if aggWorkers > 0 {
		// Edge streams have no expansion stage, so N > 0 just moves reading
		// and parsing onto a producer goroutine that runs ahead of the engine
		// behind a bounded handoff queue; the batch sequence is unchanged.
		pipe := stream.NewPipelinedBatchSource(fileSrc, *batch, stream.PipelineConfig{})
		defer pipe.Close()
		src = pipe
	}

	// Durability: log every source batch to the WAL and recover past state at
	// open. The fingerprint binds the directory to everything that shapes the
	// persisted state or the batch framing — input identity, framing knobs,
	// shard layout, delivery policy, and the engine configuration.
	var pst *persist.Store
	var restored *persist.PipelineState
	if walOpts.enabled() {
		overlap, err := newOverlap()
		if err != nil {
			return err
		}
		fp := fmt.Sprintf("run:v1:input=%s,read-batch=%d,batch=%v,shards=%d,overlap=%s,%s",
			*input, *batch, *batchMode, *shards, overlap, engineFingerprint(engCfg))
		if pst, err = openWAL(walOpts, fp, *input == "-"); err != nil {
			return err
		}
		restored = pst.Restored()
		src = pst.Batches(fileSrc).(stream.UpdateSource)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Sink chain: filter → counter (+ printer unless -quiet).
	counter := &core.CountingSink{}
	inner := core.EventSink(counter)
	if !*quiet {
		printer := core.EventSinkFunc(func(ev core.Event) {
			fmt.Printf("%-20s %v score=%.4g dens=%.4g\n", ev.Kind, ev.Set, ev.Score, ev.Density)
		})
		inner = core.MultiSink{counter, printer}
	}
	filter := &core.FilterSink{Next: inner, MinCardinality: *minCard, Watch: watchSet}

	// runHook is the per-batch boundary hook: stop cleanly on a signal
	// (cutting a final checkpoint first when persisting), cut a periodic
	// background snapshot otherwise. Edge streams have no aggregator, so
	// every batch boundary is a consistent snapshot point.
	runHook := func(capture func() (*persist.PipelineState, error)) func() error {
		return func() error {
			if ctx.Err() != nil {
				if pst != nil {
					if err := pst.Checkpoint(capture); err != nil {
						return err
					}
				}
				return stream.ErrStopped
			}
			if pst != nil {
				return pst.MaybeSnapshot(capture)
			}
			return nil
		}
	}
	finishWAL := func(interrupted bool, capture func() (*persist.PipelineState, error)) error {
		if err := checkpointWAL(pst, interrupted, capture); err != nil {
			return err
		}
		return closeWALStore(pst, walOpts, interrupted)
	}
	baseTicks := uint64(0)
	if pst != nil {
		baseTicks = pst.BaseTicks()
	}

	if *shards > 0 {
		overlap, err := newOverlap()
		if err != nil {
			return err
		}
		se, err := persist.RestoreSharded(shard.Config{Shards: *shards, Engine: engCfg, Overlap: overlap}, restored)
		if err != nil {
			return err
		}
		defer se.Close()
		r := stream.NewShardReplay(src, se, filter)
		capture := func() (*persist.PipelineState, error) {
			ps, err := persist.CaptureSharded(se, nil, nil)
			if err != nil {
				return nil, err
			}
			ps.Ticks = baseTicks + uint64(r.Stats().Ticks)
			return ps, nil
		}
		r.SetBoundaryHook(runHook(capture))
		st, err := r.RunBatches(*batch, *batchMode)
		interrupted := errors.Is(err, stream.ErrStopped)
		if err != nil && !interrupted {
			return err
		}
		fmt.Println(st)
		fmt.Printf("sink:   reported=%d (became=%d ceased=%d) filtered-out=%d net-output-dense=%d\n",
			filter.Passed, counter.Became, counter.Ceased, filter.Dropped, se.OutputDenseCount())
		fmt.Println(shardedSummary(se.Stats()))
		return finishWAL(interrupted, capture)
	}

	eng, err := persist.RestoreEngine(engCfg, restored)
	if err != nil {
		return err
	}
	r := stream.NewReplay(src, eng, filter)
	capture := func() (*persist.PipelineState, error) {
		ps, err := persist.CaptureSingle(eng, nil, nil)
		if err != nil {
			return nil, err
		}
		ps.Ticks = baseTicks + uint64(r.Stats().Ticks)
		return ps, nil
	}
	r.SetBoundaryHook(runHook(capture))
	st, err := r.RunBatches(*batch, *batchMode)
	interrupted := errors.Is(err, stream.ErrStopped)
	if err != nil && !interrupted {
		return err
	}
	fmt.Println(st)
	fmt.Printf("sink:   reported=%d (became=%d ceased=%d) filtered-out=%d\n",
		filter.Passed, counter.Became, counter.Ceased, filter.Dropped)
	fmt.Println(engineSummary(eng))
	return finishWAL(interrupted, capture)
}

func parseWatchlist(s string) (vset.Set, error) {
	if s == "" {
		return nil, nil
	}
	var vs []vset.Vertex
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseInt(tok, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("run: bad watchlist vertex %q: %w", tok, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("run: watchlist vertex %q is negative; vertices are non-negative", tok)
		}
		vs = append(vs, vset.Vertex(v))
	}
	return vset.New(vs...), nil
}
