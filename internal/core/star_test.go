package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dyndens/internal/baseline/brute"
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

// StarHeavyWindow is the number of insertions a contribution of
// StarHeavyUpdates stays in the graph.
const StarHeavyWindow = 1200

// StarHeavyUpdates is the stream of BenchmarkProcessStarHeavy, exported to the
// external benchmarks: a sliding window of exactly cancelled insertions, half
// of them inside 18 planted five-vertex groups whose triples go too-dense at
// T=3, half spread over a uniform background of the given number of vertices.
// It returns the updates of the given number of insertions, each retired
// StarHeavyWindow insertions later.
func StarHeavyUpdates(seed int64, background, insertions int) []Update {
	const (
		window    = StarHeavyWindow
		groups    = 18 // concurrently active planted groups
		groupSize = 5
		groupLife = 10000 // insertions a group lives
	)
	rng := rand.New(rand.NewSource(seed))
	var members [groups][groupSize]Vertex
	next := Vertex(background)
	var updates []Update
	ring := make([]Update, window)
	for i := 0; i < insertions; i++ {
		if i%(groupLife/groups) == 0 {
			g := &members[i/(groupLife/groups)%groups]
			for k := range g {
				g[k], next = next, next+1
			}
		}
		var x, y Vertex
		if rng.Intn(2) == 0 {
			g := &members[rng.Intn(groups)]
			p := rng.Perm(groupSize)
			x, y = g[p[0]], g[p[1]]
		} else {
			x = Vertex(rng.Intn(background))
			y = (x + 1 + Vertex(rng.Intn(background-1))) % Vertex(background)
		}
		u := Update{A: x, B: y, Delta: float64(1+rng.Intn(17)) / 8} // eighths cancel exactly
		updates = append(updates, u)
		if i >= window {
			old := ring[i%window]
			old.Delta = -old.Delta
			updates = append(updates, old)
		}
		ring[i%window] = u
	}
	return updates
}

// TestStarSelectionMatchesFullScan is the differential test of the selective
// family snapshot (Engine.selectStars): twin engines, one of them made to
// snapshot the whole '*' list on every positive pass, run the same stream
// through Process and through ProcessBatch, and must agree on the events,
// the Stats and the exported index after every unit. The streams are
// StarHeavyUpdates over 2 000 background vertices, where the light
// background updates select, and starHeavyStream's ten vertices, where
// endpoints touch most families and the bounds often pass. Each route must
// run at least 100 times.
func TestStarSelectionMatchesFullScan(t *testing.T) {
	var routes [2]int
	run := func(name string, cfg Config, updates []Update, seed int64) {
		t.Helper()
		twins := func() (sel, full *Engine) {
			sel, full = MustNew(cfg), MustNew(cfg)
			full.wholeStarScan = true
			return sel, full
		}
		check := func(label string, sel, full *Engine, got, want []Event) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: events\n got %v\nwant %v", name, label, got, want)
			}
			if sel.Stats() != full.Stats() {
				t.Fatalf("%s %s: stats\n got %+v\nwant %+v", name, label, sel.Stats(), full.Stats())
			}
			if !reflect.DeepEqual(sel.ExportState(), full.ExportState()) {
				t.Fatalf("%s %s: exported index differs", name, label)
			}
		}
		tally := func(sel, full *Engine) {
			t.Helper()
			checkValid(t, sel, name)
			if full.starRoutes[0] != 0 {
				t.Fatalf("%s: the whole-list twin selected %d times", name, full.starRoutes[0])
			}
			routes[0] += sel.starRoutes[0]
			routes[1] += sel.starRoutes[1]
			t.Logf("%s: %d passes selected, %d snapshot the whole list; %d families created", name, sel.starRoutes[0], sel.starRoutes[1], sel.Stats().StarInsertions)
		}

		sel, full := twins()
		for i, u := range updates {
			check(fmt.Sprintf("Process %d %v", i, u), sel, full,
				collect(sel, func() { sel.Process(u) }), collect(full, func() { full.Process(u) }))
		}
		tally(sel, full)

		sel, full = twins()
		rng := rand.New(rand.NewSource(seed))
		for i, rest := 0, updates; len(rest) > 0; i++ {
			k := min(1+rng.Intn(6), len(rest))
			check(fmt.Sprintf("ProcessBatch %d", i), sel, full,
				collect(sel, func() { sel.ProcessBatch(rest[:k]) }), collect(full, func() { full.ProcessBatch(rest[:k]) }))
			rest = rest[k:]
		}
		tally(sel, full)
	}
	run("planted groups", Config{T: 3, Nmax: 5}, StarHeavyUpdates(1, 2000, 6000), 1)
	for seed := int64(1); seed <= 4; seed++ {
		run(fmt.Sprintf("star-heavy seed %d", seed), Config{T: 1, Nmax: 4}, starHeavyStream(seed, 700), seed)
	}
	if routes[0] < 100 || routes[1] < 100 {
		t.Fatalf("vacuous: %d passes selected and %d snapshot the whole list, want 100 of each", routes[0], routes[1])
	}
}

// checkAgainstBrute requires the engine's expanded output-dense set to equal
// the brute-force enumeration over its own graph, both over the vertex
// universe u, and its index and reach certificates to be valid.
func checkAgainstBrute(t *testing.T, e *Engine, u []Vertex, label string) {
	t.Helper()
	if got, want := expandedKeys(e, u), oracleKeys(e, u); !slices.Equal(got, want) {
		t.Fatalf("%s: expanded output-dense set\n got %v\nwant %v", label, got, want)
	}
	checkValid(t, e, label)
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
// after every unit.
func TestStarHeavyStreamMatchesBrute(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		starHeavyRun(t, seed)
	}
}

// starHeavyRun drives the three arms for one seed, checking each against
// brute after every unit.
func starHeavyRun(t *testing.T, seed int64) {
	t.Helper()
	cfg := Config{T: 1, Nmax: 4}
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
		checkAgainstBrute(t, single, brute.UniverseOf(updates[:i+1]), fmt.Sprintf("seed %d Process %d %v", seed, i, u))
	}
	if st := single.Stats(); st.StarInsertions < 20 || st.CheapExplores < 1000 {
		t.Fatalf("seed %d: stream is not star-heavy: %d families created, %d cheap explorations", seed, st.StarInsertions, st.CheapExplores)
	}

	batched := MustNew(cfg)
	end := 0 // the batches are consecutive runs of the stream
	for i, b := range batches {
		batched.ProcessBatch(b)
		end += len(b)
		checkAgainstBrute(t, batched, brute.UniverseOf(updates[:end]), fmt.Sprintf("seed %d ProcessBatch %d", seed, i))
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
	folds, rebuilds, end := 0, 0, 0
	for i, b := range batches {
		end += len(b)
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
		checkAgainstBrute(t, scaled, brute.UniverseOf(updates[:end]), fmt.Sprintf("seed %d threshold batch %d (λ=%v)", seed, i, lambda))
	}
	if folds == 0 || rebuilds == 0 || scaled.Stats().StarInsertions == 0 {
		t.Fatalf("seed %d: rescaled run made %d folds, %d threshold decreases and %d families", seed, folds, rebuilds, scaled.Stats().StarInsertions)
	}
	if got, want := scaled.DecayScale(), lambda; got != want {
		t.Fatalf("seed %d: engine ends at scale %v, the stream at %v", seed, got, want)
	}
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
