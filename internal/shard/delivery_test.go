package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/core"
)

// The tests in this file keep the names of the former scoped-vs-mirror
// delivery checks. With one engine behind New there is one delivery, so the
// property they keep is the one those checks ended on: the numbered stream a
// SeqSink receives equals, unit for unit, the events of a plain core.Engine
// fed the same units, and the result sets agree.

// chop feeds updates to both engines in the same random interleaving of
// per-update units (ProcessAll) and batch units of at most maxBatch updates.
func chop(seed int64, maxBatch int, updates []core.Update, ref *core.Engine, se *ShardedEngine) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < len(updates); {
		if rng.Intn(2) == 0 {
			ref.Process(updates[i])
			se.ProcessAll(updates[i : i+1])
			i++
			continue
		}
		n := min(1+rng.Intn(maxBatch), len(updates)-i)
		ref.ProcessBatch(updates[i : i+n])
		se.Engine().ProcessBatch(updates[i : i+n])
		i += n
	}
}

// numberedVsPlain replays updates through New(Shards: k) and a plain engine
// and asserts the two agree unit for unit. maxBatch 0 feeds per-update
// units only, split across ProcessAll calls of split updates.
func numberedVsPlain(t *testing.T, k int, seed int64, split, maxBatch int, updates []core.Update) *ShardedEngine {
	t.Helper()
	ref := core.MustNew(testEngineCfg)
	refCol := newUnitCollector()
	ref.SetSink(refCol)
	se := mustNew(t, Config{Shards: k, Engine: testEngineCfg})
	var col seqCollector
	se.SetSeqSink(&col)
	if maxBatch == 0 {
		for _, u := range updates {
			ref.Process(u)
		}
		for i := 0; i < len(updates); i += split {
			se.ProcessAll(updates[i:min(i+split, len(updates))])
		}
	} else {
		chop(seed, maxBatch, updates, ref, se)
	}
	se.Flush()
	if got, want := se.Engine().OutputDenseKeys(), ref.OutputDenseKeys(); !slices.Equal(got, want) {
		t.Fatalf("tracked sets diverge: %v != plain %v", got, want)
	}
	requireSamePerSeq(t, "numbered", perSeqKeys(col.events), refCol.perSeq)
	if se.Stats().MergedEvents != refCol.events {
		t.Fatalf("delivered %d events, plain engine emitted %d", se.Stats().MergedEvents, refCol.events)
	}
	return se
}

// TestScopedMatchesMirrorRandomStreams: across Shards values, ProcessAll
// splits and random streams with heavy churn, the numbered stream equals the
// plain engine's.
func TestScopedMatchesMirrorRandomStreams(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("K=%d/seed=%d", k, seed), func(t *testing.T) {
				updates := testStream(seed, 20, 1500, 0.35)
				split := 1 << (seed % 3) * 16 // 16, 32, 64 updates per ProcessAll call
				numberedVsPlain(t, k, seed, split, 0, updates).Close()
			})
		}
	}
}

// TestScopedMatchesMirrorInterleavedBatches covers batch units: the same
// stream chopped into a random interleaving of per-update units and batch
// units must be numbered one per unit with the plain engine's events.
func TestScopedMatchesMirrorInterleavedBatches(t *testing.T) {
	updates := testStream(9, 18, 1200, 0.3)
	numberedVsPlain(t, 3, 42, 0, 60, updates).Close()
}

// TestScopedMatchesMirrorStarHeavy runs the equivalence on a stream whose
// heavy edges among six vertices keep pairs and triples too-dense, so the
// engine holds ImplicitTooDense families, while half of the stream lands on
// far vertices no index path mentions.
func TestScopedMatchesMirrorStarHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var updates []core.Update
	for len(updates) < 1500 {
		var u core.Update
		if rng.Intn(2) == 0 {
			u = core.Update{A: core.Vertex(rng.Intn(6)), B: core.Vertex(rng.Intn(6)), Delta: 0.5 + 3*rng.Float64()}
		} else {
			u = core.Update{A: core.Vertex(20 + rng.Intn(20)), B: core.Vertex(20 + rng.Intn(20)), Delta: 0.2 + 2*rng.Float64()}
		}
		if rng.Intn(4) == 0 {
			u.Delta = -2 * u.Delta
		}
		if u.A != u.B {
			updates = append(updates, u)
		}
	}
	// Feed half the stream, check the engine then holds families, then the
	// rest: the equivalence must hold across the star-heavy stretch.
	half := len(updates) / 2
	se := numberedVsPlain(t, 3, 5, 0, 12, updates[:half])
	defer se.Close()
	if stars := se.Stats().Aggregate.IndexedStars; stars == 0 {
		t.Fatal("stream is not star-heavy: no ImplicitTooDense family after the first half")
	}
	numberedVsPlain(t, 3, 5, 0, 12, updates).Close()
}

// FuzzScopedDelivery fuzzes the equivalence: any update stream decoded from
// the fuzz input must produce identical tracked sets and numbered streams
// through New and through a plain engine. Crashes or divergence are both
// failures.
func FuzzScopedDelivery(f *testing.F) {
	f.Add([]byte{1, 2, 30, 2, 3, 40, 1, 3, 50, 2, 3, 0x85, 1, 2, 60})
	f.Add([]byte{0, 1, 255, 0, 2, 255, 1, 2, 255, 0, 3, 255, 2, 3, 255, 1, 3, 255})
	f.Add([]byte{9, 9, 10, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var updates []core.Update
		for i := 0; i+2 < len(data); i += 3 {
			delta := float64(data[i+2] & 0x7f)
			if data[i+2]&0x80 != 0 {
				delta = -delta
			}
			updates = append(updates, core.Update{
				A:     core.Vertex(data[i] % 16),
				B:     core.Vertex(data[i+1] % 16),
				Delta: delta / 8,
			})
		}
		if len(updates) == 0 {
			return
		}
		numberedVsPlain(t, 3, 1, 4, 0, updates).Close()
		numberedVsPlain(t, 3, int64(len(data)), 0, 4, updates).Close()
	})
}
