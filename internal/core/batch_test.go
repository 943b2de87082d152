// Unit tests for Engine.ProcessBatch: batch-boundary bookkeeping, per-pair
// coalescing (duplicates, clamping, exact cancellation), event netting, and
// randomized final-state equivalence against the sequential engine and the
// brute-force oracle. The full pipeline-level conformance suite (story
// records) lives in internal/stream.
package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/core"
	"dyndens/internal/stream"
)

// boundarySink counts events and update boundaries.
type boundarySink struct {
	core.CollectorSink
	boundaries int
}

func (b *boundarySink) EndUpdate() { b.boundaries++ }

func TestProcessBatchEmptyAndNoopTicksBoundary(t *testing.T) {
	eng := core.MustNew(core.Config{T: 1, Nmax: 4})
	sink := &boundarySink{}
	eng.SetSink(sink)

	eng.ProcessBatch(nil)
	eng.ProcessBatch([]core.Update{})
	eng.ProcessBatch([]core.Update{{A: 1, B: 1, Delta: 5}, {A: 2, B: 3, Delta: 0}})
	// +2 then −2 on the same pair nets to zero: no transition, still one tick.
	eng.ProcessBatch([]core.Update{{A: 1, B: 2, Delta: 2}, {A: 1, B: 2, Delta: -2}})

	if sink.boundaries != 4 {
		t.Fatalf("boundaries = %d, want 4 (one per ProcessBatch call)", sink.boundaries)
	}
	if sink.Len() != 0 {
		t.Fatalf("no-op batches emitted %d events", sink.Len())
	}
	st := eng.Stats()
	if st.Batches != 4 {
		t.Fatalf("Stats.Batches = %d, want 4", st.Batches)
	}
	if st.Updates != 4 {
		t.Fatalf("Stats.Updates = %d, want 4 (individual updates counted)", st.Updates)
	}
	if eng.Graph().Weight(1, 2) != 0 {
		t.Fatalf("cancelled pair left weight %g", eng.Graph().Weight(1, 2))
	}
}

func TestProcessBatchDuplicatePairCoalesces(t *testing.T) {
	seq := core.MustNew(core.Config{T: 2, Nmax: 4})
	bat := core.MustNew(core.Config{T: 2, Nmax: 4})
	batch := []core.Update{
		{A: 1, B: 2, Delta: 1.5},
		{A: 2, B: 1, Delta: 1.0}, // same pair, opposite orientation
		{A: 2, B: 3, Delta: 2.5},
		{A: 1, B: 2, Delta: 0.5},
	}
	for _, u := range batch {
		seq.Process(u)
	}
	var sink core.CollectorSink
	bat.SetSink(&sink)
	bat.ProcessBatch(batch)
	evs := sink.Take()
	if !slices.Equal(bat.OutputDenseKeys(), seq.OutputDenseKeys()) {
		t.Fatalf("batched keys %v != sequential %v", bat.OutputDenseKeys(), seq.OutputDenseKeys())
	}
	if w := bat.Graph().Weight(1, 2); w != 3 {
		t.Fatalf("coalesced weight = %g, want 3", w)
	}
	// {1,2} reached density 3 ≥ T·1: exactly one net became event for it.
	var keys []string
	for _, ev := range evs {
		if ev.Kind != core.BecameOutputDense {
			t.Fatalf("unexpected %v event in a positive batch", ev.Kind)
		}
		keys = append(keys, ev.Set.Key())
	}
	if !slices.Contains(keys, "1,2") {
		t.Fatalf("no became event for the coalesced pair; events: %v", keys)
	}
}

// TestProcessBatchClampOrdering pins the clamp-at-zero semantics: the net
// applied delta is final − initial under in-order application, not the sum of
// the raw deltas.
func TestProcessBatchClampOrdering(t *testing.T) {
	seq := core.MustNew(core.Config{T: 2, Nmax: 4})
	bat := core.MustNew(core.Config{T: 2, Nmax: 4})
	warm := core.Update{A: 1, B: 2, Delta: 5}
	seq.Process(warm)
	bat.Process(warm)

	batch := []core.Update{
		{A: 1, B: 2, Delta: -10}, // clamps 5 → 0
		{A: 1, B: 2, Delta: 3},   // 0 → 3
	}
	for _, u := range batch {
		seq.Process(u)
	}
	bat.ProcessBatch(batch)
	if w := bat.Graph().Weight(1, 2); w != 3 {
		t.Fatalf("clamped weight = %g, want 3", w)
	}
	if !slices.Equal(bat.OutputDenseKeys(), seq.OutputDenseKeys()) {
		t.Fatalf("batched keys %v != sequential %v", bat.OutputDenseKeys(), seq.OutputDenseKeys())
	}
	if msg := bat.ValidateIndex(); msg != "" {
		t.Fatalf("index invalid after clamped batch: %s", msg)
	}
	if msg := bat.ValidateCertificates(); msg != "" {
		t.Fatalf("after clamped batch: %s", msg)
	}
}

// TestProcessBatchCoalescingMatchesSequential drives everything the sorted
// per-pair coalescing has to get right through one batch, interleaved so no
// pair's updates are adjacent in the stream: duplicates in both orientations
// (summed in stream order), a pair netting to exactly zero (dropped — it must
// not reach discovery), a pair clamped at zero and refilled (net = final −
// initial, not the sum of raw deltas), and a pair clamped to zero for good.
// The batched engine must equal the sequential one weight for weight, and
// both must expand to the oracle's output-dense set: which members of an
// ImplicitTooDense family are explicit depends on the order of discovery, so
// the explicit keys are not compared.
func TestProcessBatchCoalescingMatchesSequential(t *testing.T) {
	cfg := core.Config{T: 2, Nmax: 4}
	seq, bat := core.MustNew(cfg), core.MustNew(cfg)
	// Light edges first, so every vertex has an edge by the time the heavy
	// subgraphs form and turn too-dense.
	warm := []core.Update{
		{A: 6, B: 7, Delta: 1}, {A: 8, B: 9, Delta: 0.5}, {A: 3, B: 4, Delta: 0.25}, {A: 5, B: 6, Delta: 0.25}, {A: 4, B: 5, Delta: 5},
		{A: 1, B: 2, Delta: 5}, {A: 2, B: 3, Delta: 5}, {A: 1, B: 3, Delta: 5},
	}
	for _, u := range warm {
		seq.Process(u)
		bat.Process(u)
	}
	batch := []core.Update{
		{A: 1, B: 2, Delta: -10},  // clamps 5 → 0 ...
		{A: 8, B: 9, Delta: 0.75}, // duplicate pair, three parts, two orientations
		{A: 6, B: 7, Delta: 2.5},  // nets to zero: +2.5 ...
		{A: 4, B: 5, Delta: -9},   // clamps 5 → 0 and stays there
		{A: 9, B: 8, Delta: 1.5},
		{A: 2, B: 1, Delta: 3},    // ... then refills 0 → 3: net −2, not −7
		{A: 7, B: 6, Delta: -2.5}, // ... −2.5
		{A: 3, B: 4, Delta: 4},
		{A: 8, B: 9, Delta: 0.125},
		{A: 5, B: 5, Delta: 3}, // self-loop and zero delta: ignored
		{A: 2, B: 3, Delta: 0},
	}
	for _, u := range batch {
		seq.Process(u)
	}
	before := bat.Stats()
	bat.ProcessBatch(batch)
	for _, p := range [][2]core.Vertex{{1, 2}, {8, 9}, {6, 7}, {4, 5}, {3, 4}, {2, 3}} {
		if got, want := bat.Graph().Weight(p[0], p[1]), seq.Graph().Weight(p[0], p[1]); got != want {
			t.Fatalf("weight %v = %g, sequential has %g", p, got, want)
		}
	}
	if w := bat.Graph().Weight(8, 9); w != 0.5+0.75+1.5+0.125 {
		t.Fatalf("duplicate pair weight = %g", w)
	}
	if msg := bat.ValidateIndex(); msg != "" {
		t.Fatalf("index invalid after the batch: %s", msg)
	}
	checkExpandedAgainstOracle(t, "after the batch", brute.UniverseOf(append(warm, batch...)), bat, seq)
	// Two pairs end with a positive net delta ({8,9} and {3,4}); the zero-net
	// pair and the three negative ones must not run a discovery pass.
	if got := bat.Stats().BatchPairs() - before.BatchPairs(); got != 2 {
		t.Fatalf("discovery ran for %d pairs, want 2", got)
	}
}

// TestProcessBatchNetsFlappingTransitions drives a batch whose sequential
// processing reports a became/ceased pair for the same subgraph; the batch
// must report nothing for it.
func TestProcessBatchNetsFlappingTransitions(t *testing.T) {
	mk := func() *core.Engine {
		e := core.MustNew(core.Config{T: 2, Nmax: 4})
		e.Process(core.Update{A: 1, B: 2, Delta: 1.9})
		return e
	}
	seq, bat := mk(), mk()
	batch := []core.Update{
		{A: 1, B: 2, Delta: 0.5},  // 2.4: becomes output-dense
		{A: 1, B: 2, Delta: -0.6}, // 1.8: ceases again
	}
	var seqEvents core.CollectorSink
	seq.SetSink(&seqEvents)
	for _, u := range batch {
		seq.Process(u)
	}
	if seqEvents.Len() != 2 {
		t.Fatalf("sequential flap produced %d events, want 2 (became+ceased)", seqEvents.Len())
	}
	var batEvents core.CollectorSink
	bat.SetSink(&batEvents)
	bat.ProcessBatch(batch)
	if evs := batEvents.Take(); len(evs) != 0 {
		t.Fatalf("batch reported %d events for a net-zero flap: %v", len(evs), evs)
	}
	if !slices.Equal(bat.OutputDenseKeys(), seq.OutputDenseKeys()) {
		t.Fatalf("final sets diverged: %v vs %v", bat.OutputDenseKeys(), seq.OutputDenseKeys())
	}
}

// checkExpandedAgainstOracle requires the batched and the sequential engine,
// which share one graph state, to expand to brute.EnumerateAll's output-dense
// set over the vertex universe u, and their reach certificates to be valid.
func checkExpandedAgainstOracle(t *testing.T, label string, u []core.Vertex, bat, seq *core.Engine) {
	t.Helper()
	cfg := bat.Config()
	p := brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: u}
	oracle := brute.Keys(brute.EnumerateAll(bat.Graph(), p))
	for name, eng := range map[string]*core.Engine{"batch": bat, "sequential": seq} {
		if expanded := brute.OutputDenseExpanded(eng, p); !slices.Equal(expanded, oracle) {
			t.Fatalf("%s: %s expanded set %v != oracle %v", label, name, expanded, oracle)
		}
		if msg := eng.ValidateCertificates(); msg != "" {
			t.Fatalf("%s: %s: %s", label, name, msg)
		}
	}
}

// TestProcessBatchMatchesSequential replays seeded mixed streams through a
// sequential engine and, in random partitions, through ProcessBatch, checking
// state equivalence at every batch boundary. Which dense subgraphs are
// explicit vs implicitly represented through '*' families is order-dependent
// (a member promoted by one sequential sub-step may stay implicit under the
// coalesced net deltas), so the conformance claim is semantic: the expanded
// output-dense set must equal brute.EnumerateAll for both engines.
func TestProcessBatchMatchesSequential(t *testing.T) {
	cfg := core.Config{T: 2, Nmax: 4}
	t.Run("implicit", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			updates, err := stream.Synthetic(stream.SynthConfig{
				Vertices:         10,
				Updates:          400,
				Seed:             seed,
				NegativeFraction: 0.35,
				MeanDelta:        1.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			seq := core.MustNew(cfg)
			bat := core.MustNew(cfg)
			var events core.CollectorSink
			bat.SetSink(&events)
			rng := rand.New(rand.NewSource(seed * 101))
			for pos := 0; pos < len(updates); {
				n := rng.Intn(9) // empty batches included
				if pos+n > len(updates) {
					n = len(updates) - pos
				}
				chunk := updates[pos : pos+n]
				pos += n
				for _, u := range chunk {
					seq.Process(u)
				}
				bat.ProcessBatch(chunk)

				if msg := bat.ValidateIndex(); msg != "" {
					t.Fatalf("seed %d after %d updates: batch index invalid: %s", seed, pos, msg)
				}
				checkExpandedAgainstOracle(t, fmt.Sprintf("seed %d after %d updates", seed, pos), brute.UniverseOf(updates[:pos]), bat, seq)
			}
			if events.Len() == 0 {
				t.Fatalf("seed %d: batched replay emitted no events; fixture too weak", seed)
			}
		}
	})
}
