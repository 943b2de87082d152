// Unit tests for Engine.ProcessThresholdBatch: the rescaled-decay epoch unit
// that moves the threshold to baseT/λ and stamps every emitted score and
// density with λ so sinks and queries keep seeing real (paper) units while
// the internal state stays normalized. The pipeline-level exact-vs-rescale
// conformance suite lives in internal/stream.
package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/core"
)

// scaleStream draws a mixed positive stream over a small universe.
func scaleStream(seed int64, vertices, n int) []core.Update {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Update, 0, n)
	for i := 0; i < n; i++ {
		a := core.Vertex(rng.Intn(vertices))
		b := core.Vertex(rng.Intn(vertices))
		for b == a {
			b = core.Vertex(rng.Intn(vertices))
		}
		out = append(out, core.Update{A: a, B: b, Delta: rng.ExpFloat64() * 1.5})
	}
	return out
}

func relCloseTo(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// TestProcessThresholdBatchMatchesRealUnitReference pins the normalized
// representation against the real (paper-unit) graph it stands for. The
// engine under test ingests raw weights at λ=1, then a threshold epoch moves
// λ to 0.5 with the second chunk arriving normalized (delta/λ): its stored
// graph is real/λ throughout and its threshold T/λ. The reference engine is
// fed the real-unit stream directly — first chunk pre-faded by λ, second
// fresh — at the base threshold. Expanded dense sets must agree (with the
// brute oracle on each engine's own graph), and the normalized engine's
// emitted densities must already be real-unit.
func TestProcessThresholdBatchMatchesRealUnitReference(t *testing.T) {
	// A power of two keeps delta/scale and w·scale exact, so the two engines
	// hold bit-identical graphs up to the shared input rounding.
	const scale = 0.5
	baseCfg := core.Config{T: 2, Nmax: 4}
	updates := scaleStream(11, 10, 300)

	eng := core.MustNew(baseCfg)
	eng.ProcessBatch(updates[:150])
	normalized := make([]core.Update, 150)
	for i, u := range updates[150:] {
		u.Delta /= scale
		normalized[i] = u
	}
	eng.ProcessThresholdBatch(scale, normalized)

	ref := core.MustNew(baseCfg)
	faded := make([]core.Update, 150)
	for i, u := range updates[:150] {
		u.Delta *= scale
		faded[i] = u
	}
	ref.ProcessBatch(faded)
	ref.ProcessBatch(updates[150:])

	if got, want := eng.Config().T, baseCfg.T/scale; got != want {
		t.Fatalf("normalized threshold %v, want %v", got, want)
	}
	if eng.DecayScale() != scale {
		t.Fatalf("DecayScale = %v, want %v", eng.DecayScale(), scale)
	}
	cfg := eng.Config()
	p := brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: brute.UniverseOf(updates)}
	got, want := brute.OutputDenseExpanded(eng, p), brute.OutputDenseExpanded(ref, p)
	if len(want) == 0 {
		t.Fatal("reference has no dense subgraphs; fixture too weak")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("expanded dense set %v != real-unit reference %v", got, want)
	}
	oracle := brute.Keys(brute.EnumerateAll(eng.Graph(), p))
	if !slices.Equal(got, oracle) {
		t.Fatalf("expanded dense set %v != oracle on normalized graph %v", got, oracle)
	}
	refDens := map[string]float64{}
	for _, s := range ref.OutputDense() {
		refDens[s.Set.Key()] = s.Density
	}
	outs := eng.OutputDense()
	if len(outs) == 0 {
		t.Fatal("no output-dense subgraphs; fixture too weak")
	}
	for _, s := range outs {
		want, ok := refDens[s.Set.Key()]
		if !ok {
			t.Fatalf("output-dense %s absent from reference", s.Set.Key())
		}
		if !relCloseTo(s.Density, want, 1e-9) {
			t.Fatalf("density of %s = %v, want real-unit %v", s.Set.Key(), s.Density, want)
		}
	}
}

// TestProcessThresholdBatchRenormRoundTrip drives a unit-change round trip
// through a fold: one unit carries compensating deltas that multiply every
// stored weight by 2^501 while λ drops to 2^-501 (the real graph unchanged —
// no transition may fire), and that scale is below the fold floor, so the
// engine folds it into its state: density.Fold(2^-501) = ½·2^-500. The engine
// must end at scale ½, at the threshold 2/½ = 4 exactly, holding exactly
// twice every original weight (w·2^501 − w rounds to w·2^501 and the fold is
// exact), with an unchanged dense set.
func TestProcessThresholdBatchRenormRoundTrip(t *testing.T) {
	const scale = 0x1p-501
	updates := scaleStream(17, 8, 200)
	eng := core.MustNew(core.Config{T: 2, Nmax: 4})
	sink := &boundarySink{}
	eng.SetSink(sink)
	eng.ProcessBatch(updates)
	before := eng.OutputDenseKeys()
	events := sink.Len()
	g := eng.Graph()
	pairs := dedupePairs(updates)
	grow := make([]core.Update, len(pairs))
	original := make([]float64, len(pairs))
	for i, u := range pairs {
		original[i] = g.Weight(u.A, u.B)
		grow[i] = core.Update{A: u.A, B: u.B, Delta: original[i]/scale - original[i]}
	}
	eng.ProcessThresholdBatch(scale, grow)

	if sink.Len() != events {
		t.Fatalf("a pure unit change with a fold emitted %d events", sink.Len()-events)
	}
	if eng.DecayScale() != 0.5 {
		t.Fatalf("DecayScale = %v after the fold, want 0.5", eng.DecayScale())
	}
	if got := eng.Config().T; got != 4 {
		t.Fatalf("threshold %v after the fold, want exactly 4", got)
	}
	if !slices.Equal(eng.OutputDenseKeys(), before) {
		t.Fatalf("the unit changed the dense set: %v vs %v", eng.OutputDenseKeys(), before)
	}
	for i, u := range pairs {
		if got := g.Weight(u.A, u.B); got != 2*original[i] {
			t.Fatalf("weight %d-%d = %v, want twice the original %v", u.A, u.B, got, original[i])
		}
	}
	if msg := eng.ValidateIndex(); msg != "" {
		t.Fatal(msg)
	}
}

// dedupePairs returns one canonical Update per distinct pair in updates.
func dedupePairs(updates []core.Update) []core.Update {
	seen := map[[2]core.Vertex]bool{}
	var out []core.Update
	for _, u := range updates {
		a, b := u.A, u.B
		if a > b {
			a, b = b, a
		}
		if seen[[2]core.Vertex{a, b}] {
			continue
		}
		seen[[2]core.Vertex{a, b}] = true
		out = append(out, core.Update{A: a, B: b})
	}
	return out
}

// TestProcessThresholdBatchEmitScaleOnEvents: events emitted by a threshold
// batch carry real-unit scores/densities — the NEW λ of the epoch, including
// for the dense transitions the threshold walk itself causes.
func TestProcessThresholdBatchEmitScaleOnEvents(t *testing.T) {
	eng := core.MustNew(core.Config{T: 2, Nmax: 4})
	var sink core.CollectorSink
	eng.SetSink(&sink)
	// A triangle of weight 2 per edge: density well above T.
	tri := []core.Update{{A: 0, B: 1, Delta: 2}, {A: 0, B: 2, Delta: 2}, {A: 1, B: 2, Delta: 2}}
	eng.ProcessBatch(tri)
	if sink.Len() == 0 {
		t.Fatal("triangle did not become dense; fixture too weak")
	}
	base := sink.Events()[len(sink.Events())-1]

	// Halve λ with a delta that doubles the normalized weights exactly: the
	// real graph is unchanged, so no transition may fire and queries must
	// report the same real density as before.
	grow := []core.Update{{A: 0, B: 1, Delta: 2}, {A: 0, B: 2, Delta: 2}, {A: 1, B: 2, Delta: 2}}
	n := sink.Len()
	eng.ProcessThresholdBatch(0.5, grow)
	if sink.Len() != n {
		t.Fatalf("pure unit change emitted %d events", sink.Len()-n)
	}
	var got *core.Subgraph
	for _, s := range eng.OutputDense() {
		if s.Set.Key() == base.Set.Key() {
			sc := s
			got = &sc
		}
	}
	if got == nil {
		t.Fatalf("set %s no longer output-dense", base.Set.Key())
	}
	if !relCloseTo(got.Density, base.Density, 1e-12) {
		t.Fatalf("real density drifted: %v, want %v", got.Density, base.Density)
	}

	// Now cancel one edge inside the batch: the cease events must be stamped
	// with the epoch's NEW λ (real units), not the normalized score.
	n = sink.Len()
	eng.ProcessThresholdBatch(0.25, []core.Update{{A: 0, B: 1, Delta: -8}})
	if sink.Len() == n {
		t.Fatal("edge cancellation emitted no events")
	}
	ceased := false
	for _, ev := range sink.Events()[n:] {
		if ev.Kind != core.CeasedOutputDense {
			continue
		}
		ceased = true
		// Remaining normalized pair weight is 4 (score 4, density 2); real
		// units divide by 4 at λ=0.25. Anything at or above the normalized
		// magnitude means the emit boundary forgot the scale stamp.
		if ev.Density >= 1.999 {
			t.Fatalf("cease event density %v looks normalized, not real-unit", ev.Density)
		}
	}
	if !ceased {
		t.Fatal("no CeasedOutputDense event after the edge cancellation")
	}
}
