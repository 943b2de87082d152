package persist

import (
	"fmt"
	"os"
	"sync"

	"dyndens/internal/stream"
)

// Config configures a durability Store.
type Config struct {
	// Dir is the WAL/snapshot directory; created if missing.
	Dir string
	// Fingerprint identifies the pipeline configuration (decay, engine and
	// tracker knobs, batch framing, input identity). Snapshots and segments record it
	// and recovery refuses state written by a differently configured
	// pipeline: restoring across configurations would be silently wrong.
	Fingerprint string
	// SnapshotEvery is the number of input units between periodic snapshots;
	// 0 disables periodic snapshotting (the WAL alone still recovers, and
	// explicit Checkpoints still work).
	SnapshotEvery uint64
	// Fsync makes every WAL append and snapshot write reach stable storage
	// before returning — power-loss durability at a heavy per-unit cost.
	// Off, appends are buffered and flushed at snapshot boundaries and
	// Close: a process crash loses at most the buffered tail, which recovery
	// truncates to the last complete frame (the input file re-supplies the
	// lost units on restart, so nothing is actually lost for re-readable
	// inputs; only non-replayable inputs like stdin need Fsync).
	Fsync bool
	// SegmentBytes is the WAL segment rotation threshold (default 64 MiB).
	SegmentBytes int64
	// LiveTail marks the wrapped live source as a continuation — a pipe or
	// stdin that resumes at the crash point instead of restarting from unit
	// one. The recovery chain then skips nothing after replaying the WAL.
	// Re-readable inputs (files, seeded generators) leave this false and get
	// the durable prefix skipped. Non-replayable inputs should also set Fsync:
	// without it a crash loses the buffered WAL tail, and a continuation
	// stream cannot re-supply those units.
	LiveTail bool
}

// snapshotsKept is how many snapshots survive pruning: the newest plus one
// fallback.
const snapshotsKept = 2

// StoreStats counts the durability work performed by this process — the
// numbers behind the bench harness's WAL-overhead accounting.
type StoreStats struct {
	FramesLogged   uint64 // WAL frames appended
	BytesLogged    uint64 // WAL bytes appended (headers included)
	SnapshotsCut   uint64 // snapshots written
	RecoveredUnits uint64 // durable units found at Open (snapshot + WAL)
	ReplayedFrames uint64 // WAL frames replayed through the pipeline at Open
}

// Store is one pipeline's durability session: it recovers the newest
// consistent state at Open, hands out a recovery-transparent source wrapper
// (Docs or Batches — exactly one per Store), logs every new input unit to
// the WAL, and cuts periodic snapshots in the background without stalling
// the writer.
//
// Threading: Open, Docs/Batches, MaybeSnapshot, Checkpoint, and Close are
// called from the pipeline's producer goroutine (the replay driver); only
// the snapshot encoder/writer runs concurrently, over state that was
// captured synchronously at a drained boundary. Stats may be read from any
// goroutine.
type Store struct {
	cfg        Config
	restored   *PipelineState
	replay     []frame // WAL frames past the restored snapshot, ready to feed
	durableSeq uint64  // durable units at Open (snapshot + contiguous WAL)
	wal        *walWriter
	wrapped    bool

	mu        sync.Mutex
	seq       uint64 // last unit logged (starts at durableSeq)
	lastSnap  uint64
	snapErr   error
	snapshots uint64
	snapWG    sync.WaitGroup
}

// Open recovers dir and prepares it for appending. Recovery loads the newest
// valid snapshot (falling back past damaged ones), replays the WAL's
// contiguous frame chain beyond it, truncates any torn or corrupt tail to
// the last complete frame, and removes frames the recovered state
// supersedes. A fresh or empty directory opens with no restored state.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("persist: empty WAL directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	st, snapSeq, err := loadLatestSnapshot(cfg.Dir, cfg.Fingerprint)
	if err != nil {
		return nil, err
	}
	scan, err := scanWAL(cfg.Dir, cfg.Fingerprint)
	if err != nil {
		return nil, err
	}
	chain := scan.chain
	// Keep only frames past the snapshot; a gap between the snapshot and the
	// surviving chain means the intermediate frames are unrecoverable, so
	// recovery stops at the snapshot (the last consistent state).
	for len(chain) > 0 && chain[0].seq <= snapSeq {
		chain = chain[1:]
	}
	if len(chain) > 0 && chain[0].seq != snapSeq+1 {
		chain = nil
	}
	durable := snapSeq
	if len(chain) > 0 {
		durable = chain[len(chain)-1].seq
	}
	scan.clean(cfg.Dir, durable)
	s := &Store{
		cfg:        cfg,
		restored:   st,
		replay:     chain,
		durableSeq: durable,
		seq:        durable,
		lastSnap:   snapSeq,
		wal:        newWALWriter(cfg.Dir, cfg.Fingerprint, cfg.SegmentBytes, cfg.Fsync, durable+1),
	}
	return s, nil
}

// Restored returns the recovered snapshot state, or nil when the pipeline
// starts fresh (no snapshot; any surviving WAL frames then replay from unit
// one through a freshly built pipeline).
func (s *Store) Restored() *PipelineState { return s.restored }

// DurableSeq returns the number of input units that were already durable at
// Open — the prefix of the live source the wrapped chain skips.
func (s *Store) DurableSeq() uint64 { return s.durableSeq }

// skipUnits is the live-source prefix the recovery chains skip: the durable
// prefix for re-readable inputs, nothing for continuation streams (LiveTail).
func (s *Store) skipUnits() uint64 {
	if s.cfg.LiveTail {
		return 0
	}
	return s.durableSeq
}

// Docs wraps the pipeline's live document source into the recovery chain:
// WAL-replayed documents first, then live documents past the durable prefix,
// each logged as it is handed out.
func (s *Store) Docs(live stream.DocumentSource) stream.DocumentSource {
	s.claimWrap()
	return &docChain{s: s, frames: s.replay, live: live}
}

// Batches wraps the pipeline's live batch source into the recovery chain:
// one WAL frame per batch unit, so decay provenance and threshold units
// survive the WAL/live seam.
func (s *Store) Batches(live stream.BatchSource) stream.BatchSource {
	s.claimWrap()
	return &batchChain{s: s, frames: s.replay, live: live}
}

func (s *Store) claimWrap() {
	if s.wrapped {
		panic("persist: source already wrapped; one chain per Store")
	}
	s.wrapped = true
}

// logFrame appends one input unit to the WAL; called by the chains on the
// producer goroutine.
func (s *Store) logFrame(kind uint8, payload []byte) error {
	seq, err := s.wal.append(kind, payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.seq = seq
	s.mu.Unlock()
	return nil
}

// Seq returns the sequence of the last unit handed downstream (durable or
// logged this session).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// MaybeSnapshot cuts a background snapshot when at least SnapshotEvery units
// have been logged since the last one. capture must serialise the pipeline's
// state synchronously — the exports clone everything they keep, which is the
// copy-on-write trick that lets encoding and the disk write proceed on a
// background goroutine while the writer keeps streaming; the writer is never
// stalled for longer than the capture itself. Call it from a replay boundary
// hook at drained boundaries only. Errors from earlier background writes are
// reported here (and by Checkpoint/Close).
func (s *Store) MaybeSnapshot(capture func() (*PipelineState, error)) error {
	s.mu.Lock()
	due := s.cfg.SnapshotEvery > 0 && s.seq >= s.lastSnap+s.cfg.SnapshotEvery
	err := s.snapErr
	s.snapErr = nil
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if !due {
		return nil
	}
	// Flush first: if the snapshot write tears, recovery falls back to the
	// previous snapshot plus these frames — nothing regresses.
	if err := s.wal.flush(); err != nil {
		return err
	}
	st, err := capture()
	if err != nil {
		return err
	}
	seq := s.Seq()
	st.Seq = seq
	s.mu.Lock()
	s.lastSnap = seq // claim the slot; rolled back on write failure
	s.mu.Unlock()
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		werr := writeSnapshot(s.cfg.Dir, s.cfg.Fingerprint, st, s.cfg.Fsync)
		s.mu.Lock()
		if werr != nil {
			s.snapErr = werr
		} else {
			s.snapshots++
		}
		s.mu.Unlock()
		if werr == nil {
			pruneSnapshots(s.cfg.Dir, snapshotsKept)
		}
	}()
	return nil
}

// Checkpoint synchronously flushes the WAL and writes a snapshot of the
// captured state — the final checkpoint a graceful stop cuts. It waits for
// any in-flight background snapshot first.
func (s *Store) Checkpoint(capture func() (*PipelineState, error)) error {
	s.snapWG.Wait()
	s.mu.Lock()
	err := s.snapErr
	s.snapErr = nil
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.wal.flush(); err != nil {
		return err
	}
	st, err := capture()
	if err != nil {
		return err
	}
	st.Seq = s.Seq()
	if err := writeSnapshot(s.cfg.Dir, s.cfg.Fingerprint, st, s.cfg.Fsync); err != nil {
		return err
	}
	s.mu.Lock()
	s.lastSnap = st.Seq
	s.snapshots++
	s.mu.Unlock()
	pruneSnapshots(s.cfg.Dir, snapshotsKept)
	return nil
}

// Stats returns the durability counters accumulated by this session.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		FramesLogged:   s.wal.frames,
		BytesLogged:    s.wal.bytes,
		SnapshotsCut:   s.snapshots,
		RecoveredUnits: s.durableSeq,
		ReplayedFrames: uint64(len(s.replay)),
	}
}

// Close flushes the WAL, waits for any in-flight snapshot, and releases the
// segment file. It does not cut a snapshot — graceful stops call Checkpoint
// first; crashes, by definition, call nothing.
func (s *Store) Close() error {
	s.snapWG.Wait()
	err := s.wal.close()
	s.mu.Lock()
	if err == nil && s.snapErr != nil {
		err = s.snapErr
		s.snapErr = nil
	}
	s.mu.Unlock()
	return err
}
