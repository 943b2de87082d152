package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dyndens/internal/core"
	"dyndens/internal/persist"
	"dyndens/internal/stream"
	"dyndens/internal/vset"
)

// cmdRun replays a recorded update stream (file or stdin) through the engine,
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
	newWAL := walFlags(fs)
	quiet := fs.Bool("quiet", false, "suppress per-event output, print only the summary")
	minCard := fs.Int("min-card", 0, "only report subgraphs with at least this many vertices")
	watch := fs.String("watch", "", "comma-separated vertex watchlist; only report subgraphs containing one")
	newEngineCfg := engineFlags(fs, 3, 5)
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
	wal, err := newWAL()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	watchSet, err := parseWatchlist(*watch)
	if err != nil {
		return err
	}

	p := &pipeline{wal: wal}
	defer p.close()
	var fileSrc *stream.FileSource
	if *input == "-" {
		fileSrc = stream.NewReaderSource("stdin", os.Stdin)
	} else {
		f, err := stream.OpenFile(*input)
		if err != nil {
			return err
		}
		p.closers = append(p.closers, func() { f.Close() })
		fileSrc = f
	}
	// Memory guard: a marker-less stream is one whole-stream batch, so cap
	// batches at the read size — runs longer than -read-batch split into
	// batches (and, with -batch, ticks) of their own. SetMaxBatch treats n ≤ 0
	// as "no cap", which would silently disable the guard, so reject it. The
	// WAL's frame unit is the source batch too, so the cap makes the framing
	// a deterministic function of -read-batch.
	if *batch <= 0 {
		return fmt.Errorf("run: -read-batch must be positive, got %d", *batch)
	}
	fileSrc.SetMaxBatch(*batch)
	p.src = fileSrc

	// Durability: log every source batch to the WAL and recover past state at
	// open. The fingerprint binds the directory to everything that shapes the
	// persisted state or the batch framing — input identity, framing knobs
	// and the engine configuration.
	if wal.enabled() {
		fp := fmt.Sprintf("run:v1:input=%s,read-batch=%d,batch=%v,%s,%s",
			*input, *batch, *batchMode, engineLayout, engineFingerprint(engCfg))
		if err := p.openWAL(fp, *input == "-"); err != nil {
			return err
		}
		p.src = p.pst.Batches(fileSrc).(stream.UpdateSource)
	}
	if p.eng, err = persist.RestoreEngine(engCfg, p.restored); err != nil {
		return err
	}

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

	ctx, stopSignals := signalContext()
	defer stopSignals()
	return p.drive(ctx, filter, *batch, *batchMode, func(st stream.ReplayStats, _ bool) {
		fmt.Println(st)
		fmt.Printf("sink:   reported=%d (became=%d ceased=%d) filtered-out=%d\n",
			filter.Passed, counter.Became, counter.Ceased, filter.Dropped)
		fmt.Println(statsSummary(p.eng.Stats()))
	})
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
