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
		if *dir == "" && (isSet(fs, "snapshot-every") || isSet(fs, "fsync")) {
			return walOptions{}, fmt.Errorf("-snapshot-every/-fsync require -wal")
		}
		return walOptions{Dir: *dir, SnapshotEvery: *every, Fsync: *fsync}, nil
	}
}

// openWAL opens the pipeline's durability store and takes the state it
// recovered. fingerprint must encode every configuration choice that shapes
// the persisted state or the derived update stream — recovery refuses a
// directory written under a different one. liveTail marks non-replayable
// inputs (stdin): the live stream continues at the crash point instead of
// restarting, so the recovery chain skips nothing; without -fsync such inputs
// can silently lose the buffered WAL tail, which openWAL warns about rather
// than forbids.
func (p *pipeline) openWAL(fingerprint string, liveTail bool) error {
	if liveTail && !p.wal.Fsync {
		fmt.Fprintln(os.Stderr, "warning: -wal over a non-replayable input (stdin) without -fsync: a crash loses the buffered WAL tail and those units cannot be re-read")
	}
	st, err := persist.Open(persist.Config{
		Dir:           p.wal.Dir,
		Fingerprint:   fingerprint,
		SnapshotEvery: p.wal.SnapshotEvery,
		Fsync:         p.wal.Fsync,
		LiveTail:      liveTail,
	})
	if err != nil {
		return err
	}
	if st.DurableSeq() > 0 {
		fmt.Fprintf(os.Stderr, "wal: recovered %d durable units (%d WAL frames replay past the snapshot)\n",
			st.DurableSeq(), st.Stats().ReplayedFrames)
	}
	p.pst, p.restored = st, st.Restored()
	return nil
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
