package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/density"
)

// starHeavyStream is a stream over at most ten vertices in which ImplicitToo-
// Dense upkeep is most of the work at T=1, Nmax=4: three planted triples
// carry weights that take them past too-dense and back, while light edges
// among the other vertices and into the triples come and go around them — the
// edges every star-family check and scan has to tell apart by weight.
func starHeavyStream(seed int64, n int) []Update {
	rng := rand.New(rand.NewSource(seed))
	triples := [3][3]Vertex{{0, 1, 2}, {3, 4, 5}, {2, 5, 6}}
	out := make([]Update, 0, n)
	for len(out) < n {
		var u Update
		switch r := rng.Intn(10); {
		case r < 5: // inside a triple, heavy
			tr := triples[rng.Intn(len(triples))]
			i := rng.Intn(3)
			u = Update{A: tr[i], B: tr[(i+1+rng.Intn(2))%3], Delta: 0.5 + 2*rng.Float64()}
		default: // anywhere, light
			u = Update{A: Vertex(rng.Intn(10)), B: Vertex(rng.Intn(10)), Delta: 0.05 + 0.6*rng.Float64()}
		}
		if rng.Intn(10) < 3 {
			u.Delta = -1.5 * u.Delta
		}
		if u.A != u.B {
			out = append(out, u)
		}
	}
	return out
}

// checkAgainstBrute requires the engine's expanded output-dense set to equal
// the brute-force enumeration over its own graph, and its index and reach
// certificates to be valid.
func checkAgainstBrute(t *testing.T, e *Engine, label string) {
	t.Helper()
	if got, want := expandedKeys(e), oracleKeys(e); !slices.Equal(got, want) {
		t.Fatalf("%s: expanded output-dense set\n got %v\nwant %v", label, got, want)
	}
	checkValid(t, e, label)
}

// checkWithinBrute returns the one-sided oracle check for the shipped default,
// MaxExplore on, which may miss sets (ROADMAP 1) but must never report one:
// the expanded output-dense set must be a subset of brute.EnumerateAll, and
// index and certificates valid. It logs each step with a miss and counts it
// in *misses.
func checkWithinBrute(misses *int) func(t *testing.T, e *Engine, label string) {
	return func(t *testing.T, e *Engine, label string) {
		t.Helper()
		got, want := expandedKeys(e), oracleKeys(e)
		if spurious := slices.DeleteFunc(slices.Clone(got), func(k string) bool {
			_, found := slices.BinarySearch(want, k)
			return found
		}); len(spurious) > 0 {
			t.Fatalf("%s: expanded output-dense sets the oracle does not have: %v", label, spurious)
		}
		if len(got) < len(want) {
			*misses++
			t.Logf("%s: misses %d of the oracle's %d sets", label, len(want)-len(got), len(want))
		}
		checkValid(t, e, label)
	}
}

func checkValid(t *testing.T, e *Engine, label string) {
	t.Helper()
	if msg := e.ValidateIndex(); msg != "" {
		t.Fatalf("%s: %s", label, msg)
	}
	if msg := e.ValidateCertificates(); msg != "" {
		t.Fatalf("%s: %s", label, msg)
	}
}

// TestStarHeavyStreamMatchesBrute is the differential test of the bounded
// discovery scans and the star prefilter where they do the most work: the
// same star-heavy stream through single Process calls, through ProcessBatch
// and through ProcessThresholdBatch (the stream in normalised units under a
// scale that decays, folds and now and then rises), checked against brute.EnumerateAll
// after every unit. The engine runs the exact algorithm: MaxExplore is a
// heuristic, and in this regime it does skip discoveries (so it did before
// the scans were bounded: {0,2,7,8} at update 73 of seed 1).
func TestStarHeavyStreamMatchesBrute(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		starHeavyRun(t, Config{T: 1, Nmax: 4}, seed, checkAgainstBrute)
	}
}

// TestStarHeavyStreamAblations runs the same three arms under the one
// paper-ablation switch left, MaxExplore. It is the shipped default, and it
// misses sets here (the {0,2,7,8} of TestStarHeavyStreamMatchesBrute), so it
// is held to the one-sided oracle: nothing reported that the oracle lacks.
func TestStarHeavyStreamAblations(t *testing.T) {
	misses := 0
	for seed := int64(1); seed <= 2; seed++ {
		st := starHeavyRun(t, Config{T: 1, Nmax: 4, EnableMaxExplore: true}, seed, checkWithinBrute(&misses))
		if st.MaxExploreSkips == 0 {
			t.Fatalf("seed %d: MaxExplore skipped nothing", seed)
		}
	}
	t.Logf("MaxExplore: %d steps missed sets of the oracle, none reported a spurious one", misses)
}

// starHeavyRun drives the three arms for one seed, calling check after every
// unit, and returns the sequential arm's work counters.
func starHeavyRun(t *testing.T, cfg Config, seed int64, check func(t *testing.T, e *Engine, label string)) Stats {
	t.Helper()
	updates := starHeavyStream(seed, 700)
	rng := rand.New(rand.NewSource(seed))
	var batches [][]Update
	for rest := updates; len(rest) > 0; {
		k := min(1+rng.Intn(6), len(rest))
		batches, rest = append(batches, rest[:k]), rest[k:]
	}

	single := MustNew(cfg)
	for i, u := range updates {
		single.Process(u)
		check(t, single, fmt.Sprintf("seed %d Process %d %v", seed, i, u))
	}
	st := single.Stats()
	if st.StarInsertions < 20 || st.CheapExplores < 1000 {
		t.Fatalf("seed %d: stream is not star-heavy: %d families created, %d cheap explorations", seed, st.StarInsertions, st.CheapExplores)
	}

	batched := MustNew(cfg)
	for i, b := range batches {
		batched.ProcessBatch(b)
		check(t, batched, fmt.Sprintf("seed %d ProcessBatch %d", seed, i))
	}
	if got, want := batched.OutputDenseKeys(), single.OutputDenseKeys(); !slices.Equal(got, want) {
		t.Fatalf("seed %d: batched run ends at %v, sequential at %v", seed, got, want)
	}

	// Rescaled decay: every fourth batch is an epoch that fades the graph
	// by 0.8, i.e. raises the normalised threshold, except every sixth,
	// which raises λ by 1.5 instead: a threshold decrease, which rebuilds the
	// index. λ starts at 2^-495, so the epochs cross the fold floor early on
	// and the engine folds its units. Weights are handed over in normalised
	// units.
	scaled := MustNew(cfg)
	lambda := 0x1p-495
	scaled.ProcessThresholdBatch(lambda, nil)
	norm := func(b []Update, by float64) []Update {
		out := make([]Update, len(b))
		for i, u := range b {
			out[i] = Update{A: u.A, B: u.B, Delta: u.Delta / by}
		}
		return out
	}
	folds, rebuilds := 0, 0
	for i, b := range batches {
		if i%4 != 3 {
			scaled.ProcessBatch(norm(b, lambda))
		} else {
			if i%24 == 23 {
				lambda *= 1.5
				rebuilds++
			} else {
				lambda *= 0.8
			}
			scaled.ProcessThresholdBatch(lambda, norm(b, lambda))
			if m, k := density.Fold(lambda); k != 0 {
				lambda = m
				folds++
			}
		}
		check(t, scaled, fmt.Sprintf("seed %d threshold batch %d (λ=%v)", seed, i, lambda))
	}
	if folds == 0 || rebuilds == 0 || scaled.Stats().StarInsertions == 0 {
		t.Fatalf("seed %d: rescaled run made %d folds, %d threshold decreases and %d families", seed, folds, rebuilds, scaled.Stats().StarInsertions)
	}
	if got, want := scaled.DecayScale(), lambda; got != want {
		t.Fatalf("seed %d: engine ends at scale %v, the stream at %v", seed, got, want)
	}
	return st
}

// TestValidateIndexUnderDeepRescale is the regression test for the drift
// report every rescaled-decay run used to end with: at λ = 1e-120 scores are
// of magnitude 1e120 in normalised units, where a stored score and the
// recomputed one agree to a few ulps — 1e104 apart, far beyond an absolute
// tolerance and far within the relative one the prefilters assume.
func TestValidateIndexUnderDeepRescale(t *testing.T) {
	e := MustNew(Config{T: 1, Nmax: 4})
	rng := rand.New(rand.NewSource(3))
	lambda := 1.0
	drift := 0.0
	for lambda > 1e-120 {
		lambda *= 0.5
		var batch []Update
		for i := 0; i < 6; i++ {
			a := Vertex(rng.Intn(6))
			b := (a + 1 + Vertex(rng.Intn(5))) % 6
			batch = append(batch, Update{A: a, B: b, Delta: (0.3 + rng.Float64()) / lambda})
		}
		e.ProcessThresholdBatch(lambda, batch[:3])
		for _, u := range batch[3:] {
			e.Process(u)
		}
		if msg := e.ValidateIndex(); msg != "" {
			t.Fatalf("λ=%v: %s", lambda, msg)
		}
		for _, n := range e.denseSnapshot() {
			drift = max(drift, math.Abs(n.Score()-e.g.Score(n.Set())))
		}
	}
	if e.DenseCount() == 0 || drift <= 1e-6 {
		t.Fatalf("test is vacuous: %d dense subgraphs, largest absolute drift %v", e.DenseCount(), drift)
	}
	// The tolerance is relative, not absent.
	n := e.denseSnapshot()[0]
	e.ix.SetScore(n, n.Score()*(1+1e-5))
	if msg := e.ValidateIndex(); msg == "" {
		t.Fatal("a stored score off by 1e-5 of its magnitude went unreported")
	}
}
