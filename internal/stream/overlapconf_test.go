// The delivery-policy conformance matrix: the evidence that neighbourhood-
// scoped shard routing (shard.OverlapScoped) is an optimization, not an
// approximation. Every cell of K ∈ {1, 2, 4, 8} × {mirror, scoped} ×
// {sequential, batched} must reproduce the single engine bit for bit: the
// merged event stream update for update (tick for tick in batch mode), the
// explicit OutputDenseKeys at every checkpoint, and the story lifecycle
// records and final story table driven from the merged stream. The single
// sequential reference is itself pinned to brute.EnumerateAll at the same
// checkpoints, so the whole matrix is transitively oracle-backed.
package stream

import (
	"fmt"
	"slices"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/core"
	"dyndens/internal/shard"
)

// matrixOverlaps spans both delivery policies; matrixShards spans the shard
// counts the PR's scaling claims are made for.
var (
	matrixOverlaps = []shard.Overlap{shard.OverlapMirror, shard.OverlapScoped}
	matrixShards   = []int{1, 2, 4, 8}
)

func TestOverlapConformanceMatrixSequential(t *testing.T) {
	const checkEvery = 50
	engCfg := core.Config{T: 2, Nmax: 4}
	updates, err := Synthetic(SynthConfig{
		Vertices:         10,
		Updates:          400,
		Seed:             51,
		NegativeFraction: 0.35,
		MeanDelta:        1.5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Single sequential reference: per-update events, checkpointed keys, an
	// oracle check per checkpoint, and a story tracker driven per update.
	ref := core.MustNew(engCfg)
	var sink core.CollectorSink
	ref.SetSink(&sink)
	refTracker := newLoggedTracker(trackerConfig)
	perSeq := make(map[uint64][]string)
	keysAt := make(map[int][]string)
	total := 0
	for i, u := range updates {
		ref.Process(u)
		evs := sink.Take()
		total += len(evs)
		if len(evs) > 0 {
			perSeq[uint64(i+1)] = canonKeys(evs)
		}
		for _, ev := range evs {
			refTracker.Emit(ev)
		}
		refTracker.EndUpdate()
		if (i+1)%checkEvery == 0 || i == len(updates)-1 {
			keysAt[i+1] = ref.OutputDenseKeys()
			cfg := ref.Config()
			p := brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: brute.UniverseOf(updates[:i+1])}
			oracle := brute.Keys(brute.EnumerateAll(ref.Graph(), p))
			if expanded := brute.OutputDenseExpanded(ref, p); !slices.Equal(expanded, oracle) {
				t.Fatalf("after %d updates: reference expanded set %v != oracle %v", i+1, expanded, oracle)
			}
		}
	}
	refTracker.Close(uint64(len(updates)))
	if total == 0 {
		t.Fatal("reference produced no events; fixture too weak")
	}

	for _, k := range matrixShards {
		for _, ov := range matrixOverlaps {
			t.Run(fmt.Sprintf("K=%d/%s", k, ov), func(t *testing.T) {
				se := shard.MustNew(shard.Config{Shards: k, Engine: engCfg, Overlap: ov, BatchSize: 32})
				defer se.Close()
				shTracker := newLoggedTracker(trackerConfig)
				rec := &seqRecorder{}
				se.SetSeqSink(seqFanOut{rec, shTracker})
				for i, u := range updates {
					se.Process(u)
					if (i+1)%checkEvery == 0 || i == len(updates)-1 {
						se.Flush()
						if got := se.OutputDenseKeys(); !slices.Equal(got, keysAt[i+1]) {
							t.Fatalf("after %d updates: merged keys %v != reference %v", i+1, got, keysAt[i+1])
						}
					}
				}
				se.Flush()
				for i := range updates {
					seq := uint64(i + 1)
					got := canonKeys(rec.tick(seq))
					want := perSeq[seq]
					if !slices.Equal(got, want) {
						t.Fatalf("update %d: merged events %v != reference %v", seq, got, want)
					}
				}
				shTracker.Close(uint64(len(updates)))
				requireSameRecords(t, fmt.Sprintf("K=%d/%s", k, ov), shTracker, refTracker)
			})
		}
	}
}

func TestOverlapConformanceMatrixBatched(t *testing.T) {
	engCfg := core.Config{T: 2, Nmax: 4}
	updates, err := Synthetic(SynthConfig{
		Vertices:         10,
		Updates:          400,
		Seed:             53,
		NegativeFraction: 0.35,
		MeanDelta:        1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := randomBatches(371, updates)

	// Single batched reference: per-tick net events and a tracker driven at
	// batch boundaries. The batched single engine is itself pinned to the
	// sequential engine by TestBatchConformance; here it anchors the matrix.
	bat := core.MustNew(engCfg)
	batTracker := newLoggedTracker(trackerConfig)
	rec := &tickRecorder{}
	bat.SetSink(core.MultiSink{rec, batTracker})
	for _, b := range batches {
		bat.ProcessBatch(b)
	}
	batTracker.Close(uint64(len(batches)))
	total := 0
	for _, tick := range rec.ticks {
		total += len(tick)
	}
	if total == 0 {
		t.Fatal("batched reference produced no events; fixture too weak")
	}

	for _, k := range matrixShards {
		for _, ov := range matrixOverlaps {
			t.Run(fmt.Sprintf("K=%d/%s", k, ov), func(t *testing.T) {
				se := shard.MustNew(shard.Config{Shards: k, Engine: engCfg, Overlap: ov})
				defer se.Close()
				shTracker := newLoggedTracker(trackerConfig)
				shRec := &seqRecorder{}
				se.SetSeqSink(seqFanOut{shRec, shTracker})
				for _, b := range batches {
					se.ProcessBatch(b)
				}
				se.Flush()
				for i := range batches {
					got, want := canonKeys(shRec.tick(uint64(i+1))), canonKeys(rec.ticks[i])
					if !slices.Equal(got, want) {
						t.Fatalf("batch %d: merged events %v != single batched %v", i, got, want)
					}
				}
				if got, want := se.OutputDenseKeys(), bat.OutputDenseKeys(); !slices.Equal(got, want) {
					t.Fatalf("merged keys %v != single batched %v", got, want)
				}
				shTracker.Close(uint64(len(batches)))
				requireSameRecords(t, fmt.Sprintf("K=%d/%s", k, ov), shTracker, batTracker)

				// Scoped delivery must actually scope on multi-shard runs —
				// an accounting sanity check, not an output property.
				st := se.Stats()
				if ov == shard.OverlapMirror && st.MeanDeliveryFraction() != 1.0 {
					t.Fatalf("mirror delivery fraction %v, want 1.0", st.MeanDeliveryFraction())
				}
				if ov == shard.OverlapScoped && k >= 4 && st.MeanDeliveryFraction() >= 1.0 {
					t.Fatalf("scoped K=%d delivered everything; scoping inert", k)
				}
			})
		}
	}
}
