package main

import (
	"flag"
	"fmt"
	"os"

	"dyndens/internal/core"
	"dyndens/internal/persist"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// walOptions is the parsed durability configuration shared by run, stories
// run, and serve. An empty Dir disables persistence entirely — the default.
type walOptions struct {
	Dir           string
	SnapshotEvery uint64
	Fsync         bool
}

func (o walOptions) enabled() bool { return o.Dir != "" }

// walFlags registers the durability flags. With -wal DIR every input unit is
// logged to a CRC-framed segment WAL and the full pipeline state is
// snapshotted periodically; a restart over the same directory recovers the
// newest consistent state, truncates any torn tail, and resumes mid-stream
// with story identities intact (see README "Durability").
func walFlags(fs *flag.FlagSet) func() (walOptions, error) {
	dir := fs.String("wal", "", "durability directory: log input units to a segment WAL and snapshot pipeline state; restart with the same flags to resume (empty = no persistence)")
	every := fs.Uint64("snapshot-every", 5000, "with -wal: cut a background snapshot every N input units (0 = WAL only, no periodic snapshots)")
	fsync := fs.Bool("fsync", false, "with -wal: fsync every WAL frame and snapshot (power-loss durability; required for correct stdin resume, heavy per-unit cost)")
	return func() (walOptions, error) {
		if *dir == "" && (*every != 5000 || *fsync) {
			return walOptions{}, fmt.Errorf("-snapshot-every/-fsync require -wal")
		}
		return walOptions{Dir: *dir, SnapshotEvery: *every, Fsync: *fsync}, nil
	}
}

// openWAL opens the durability store. fingerprint must encode every
// configuration choice that shapes the persisted state or the derived update
// stream — recovery refuses a directory written under a different one.
// liveTail marks non-replayable inputs (stdin): the live stream continues at
// the crash point instead of restarting, so the recovery chain skips nothing;
// without -fsync such inputs can silently lose the buffered WAL tail, which
// openWAL warns about rather than forbids.
func openWAL(opts walOptions, fingerprint string, liveTail bool) (*persist.Store, error) {
	if liveTail && !opts.Fsync {
		fmt.Fprintln(os.Stderr, "warning: -wal over a non-replayable input (stdin) without -fsync: a crash loses the buffered WAL tail and those units cannot be re-read")
	}
	st, err := persist.Open(persist.Config{
		Dir:           opts.Dir,
		Fingerprint:   fingerprint,
		SnapshotEvery: opts.SnapshotEvery,
		Fsync:         opts.Fsync,
		LiveTail:      liveTail,
	})
	if err != nil {
		return nil, err
	}
	if st.DurableSeq() > 0 {
		fmt.Fprintf(os.Stderr, "wal: recovered %d durable units (%d WAL frames replay past the snapshot)\n",
			st.DurableSeq(), st.Stats().ReplayedFrames)
	}
	return st, nil
}

// checkpointWAL cuts the final checkpoint of a completed run. A graceful
// interrupt already cut its own checkpoint inside the boundary hook, and a
// nil store means persistence is off — both are no-ops here. Call it before
// anything that mutates pipeline state past the last boundary (for example
// Tracker.Close, which resolves grace windows for the final report).
func checkpointWAL(pst *persist.Store, interrupted bool, capture func() (*persist.PipelineState, error)) error {
	if pst == nil || interrupted {
		return nil
	}
	return pst.Checkpoint(capture)
}

// closeWALStore prints the durability counters and releases the store; with a
// nil store it only notes an interrupt. The resume hint tells an interrupted
// run how to pick up where the checkpoint left off.
func closeWALStore(pst *persist.Store, opts walOptions, interrupted bool) error {
	if pst == nil {
		if interrupted {
			fmt.Println("interrupted: stopped at a batch boundary (no -wal: state not persisted)")
		}
		return nil
	}
	ws := pst.Stats()
	fmt.Printf("wal:    frames=%d bytes=%d snapshots=%d recovered=%d replayed=%d durable=%d\n",
		ws.FramesLogged, ws.BytesLogged, ws.SnapshotsCut, ws.RecoveredUnits, ws.ReplayedFrames, pst.Seq())
	if interrupted {
		fmt.Printf("interrupted: checkpoint covers unit %d; rerun with -wal %s to resume\n", pst.Seq(), opts.Dir)
	}
	return pst.Close()
}

// engineFingerprint renders the engine knobs that shape persisted state.
func engineFingerprint(cfg core.Config) string {
	c := cfg.WithDefaults()
	return fmt.Sprintf("measure=%s,T=%g,nmax=%d,deltait=%g,maxexplore=%v",
		c.Measure.Name(), c.T, c.Nmax, c.DeltaIt, c.EnableMaxExplore)
}

// aggFingerprint renders the aggregation knobs that shape the derived update
// stream (and therefore everything downstream of a logged document).
func aggFingerprint(cfg stream.AggregatorConfig) string {
	return fmt.Sprintf("epoch=%d,decay=%g,docweight=%g,prune=%g",
		cfg.EpochLength, cfg.Decay, cfg.DocWeight, cfg.PruneBelow)
}

// trackerFingerprint renders the story-identity knobs persisted in tracker
// state.
func trackerFingerprint(cfg story.Config) string {
	return fmt.Sprintf("jaccard=%g,grace=%d,trk-mincard=%d",
		cfg.MinJaccard, cfg.Grace, cfg.MinCardinality)
}
