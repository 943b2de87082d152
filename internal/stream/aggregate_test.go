package stream

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dyndens/internal/baseline/fade"
	"dyndens/internal/core"
	"dyndens/internal/graph"
	"dyndens/internal/vset"
)

// mustAggregator is NewAggregator for a configuration known to be good.
func mustAggregator(docs DocumentSource, cfg AggregatorConfig) *Aggregator {
	a, err := NewAggregator(docs, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// pairWeight returns the aggregator's stored weight for the pair {a, b} (0 if
// untracked), in the units the engine's graph holds: the normalized weight
// w' = w/λ. After every batch the engine has applied, this equals the engine
// graph's edge weight bit for bit: both sum the same deltas in the same
// order, and a fold relabels both by the same power of two
// (TestAggregatorMirrorsEngineGraph).
func pairWeight(g *Aggregator, a, b graph.Vertex) float64 {
	w, _ := g.weights.get(makePairKey(a, b))
	return w
}

// docs builds a document from a timestamp and mentions.
func doc(time int64, entities ...vset.Vertex) Document {
	return Document{Time: time, Entities: vset.New(entities...)}
}

// recordedBatch is one batch captured for deep comparison, with updates and
// threshold units copied out of the source's reused backing stores.
type recordedBatch struct {
	updates   []Update
	decay     bool
	threshold *ThresholdUpdate
}

// recordBatches drains bs, cloning every batch; the terminal error (io.EOF on
// clean streams) is returned alongside the batches read before it.
func recordBatches(bs BatchSource) ([]recordedBatch, error) {
	var out []recordedBatch
	for {
		b, err := bs.NextBatch()
		if err != nil {
			return out, err
		}
		rb := recordedBatch{updates: append([]Update(nil), b.Updates...), decay: b.Decay}
		if b.Threshold != nil {
			thr := *b.Threshold
			rb.threshold = &thr
		}
		out = append(out, rb)
	}
}

// requireSameBatches compares two recorded streams value-by-value (updates
// bit-exact).
func requireSameBatches(t *testing.T, label string, got, want []recordedBatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batches, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.decay != w.decay {
			t.Fatalf("%s: batch %d decay=%v, want %v", label, i, g.decay, w.decay)
		}
		switch {
		case (g.threshold == nil) != (w.threshold == nil):
			t.Fatalf("%s: batch %d threshold presence %v, want %v", label, i, g.threshold != nil, w.threshold != nil)
		case g.threshold != nil && *g.threshold != *w.threshold:
			t.Fatalf("%s: batch %d threshold %+v, want %+v", label, i, *g.threshold, *w.threshold)
		}
		if len(g.updates) != len(w.updates) {
			t.Fatalf("%s: batch %d has %d updates, want %d", label, i, len(g.updates), len(w.updates))
		}
		for j := range w.updates {
			if g.updates[j] != w.updates[j] {
				t.Fatalf("%s: batch %d update %d = %+v, want %+v", label, i, j, g.updates[j], w.updates[j])
			}
		}
	}
}

// pipelineConfDocs is a randomized document workload: randomized document sizes
// (including single-entity documents that only advance time), duplicate
// mentions, single- and multi-epoch jumps — everything that exercises epoch
// ticks, retirement, and re-keying.
func pipelineConfDocs(seed int64, n int) []Document {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]Document, 0, n)
	now := int64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.30:
			now += 10
		case r < 0.38:
			now += 10 * int64(2+rng.Intn(4))
		}
		m := 1 + rng.Intn(6)
		ents := make([]vset.Vertex, 0, m)
		for j := 0; j < m; j++ {
			ents = append(ents, vset.Vertex(rng.Intn(25)))
		}
		docs = append(docs, Document{Time: now, Entities: vset.New(ents...)})
	}
	return docs
}

// flatten concatenates a recorded batch stream's updates.
func flatten(batches []recordedBatch) []Update {
	var out []Update
	for _, b := range batches {
		out = append(out, b.updates...)
	}
	return out
}

// drainAggregator records every batch of agg, failing on any error but EOF.
func drainAggregator(t *testing.T, agg *Aggregator) []recordedBatch {
	t.Helper()
	batches, err := recordBatches(agg)
	if !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	return batches
}

// TestAggregatorEmitsPairDeltas checks the basic co-occurrence expansion: a
// document with k entities yields k(k-1)/2 positive updates in sorted order.
func TestAggregatorEmitsPairDeltas(t *testing.T) {
	agg := mustAggregator(NewSliceDocSource([]Document{doc(0, 3, 1, 2)}),
		AggregatorConfig{EpochLength: 10, DocWeight: 2})
	got := flatten(drainAggregator(t, agg))
	want := []Update{
		{A: 1, B: 2, Delta: 2},
		{A: 1, B: 3, Delta: 2},
		{A: 2, B: 3, Delta: 2},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	st := agg.Stats()
	if st.Docs != 1 || st.PairUpdates != 3 || st.DecayUpdates != 0 || st.TrackedPairs != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAggregatorFadesOnEpochTick pins the fading schedule in rescaled terms:
// crossing an epoch boundary emits one threshold unit whose Scale is the
// cumulative λ, multiple elapsed epochs compound into one unit, later
// documents add DocWeight/λ, documents with fewer than two entities still
// advance time, and the real weight Weight·Scale is weight·Decay^elapsed.
// fade's TestSweepFadesOnEpochTick pins the same schedule as per-pair deltas.
func TestAggregatorFadesOnEpochTick(t *testing.T) {
	src := NewSliceDocSource([]Document{
		doc(0, 1, 2),
		doc(9, 1, 2),  // same epoch: weight accumulates to 2
		doc(10, 3, 4), // epoch 1: λ = 0.5, {1,2} fades to 1
		doc(35, 5),    // epoch 3: two elapsed epochs compound on {1,2} and {3,4}
	})
	agg := mustAggregator(src, AggregatorConfig{EpochLength: 10, Decay: 0.5, PruneBelow: -1})
	requireSameBatches(t, "fading", drainAggregator(t, agg), []recordedBatch{
		{updates: []Update{{A: 1, B: 2, Delta: 1}}},
		{updates: []Update{{A: 1, B: 2, Delta: 1}}},
		{decay: true, threshold: &ThresholdUpdate{Scale: 0.5}},
		{updates: []Update{{A: 3, B: 4, Delta: 2}}}, // 1/λ: real weight 1
		{decay: true, threshold: &ThresholdUpdate{Scale: 0.125}},
	})
	st := agg.Stats()
	if st.Epochs != 3 || st.ThresholdUpdates != 2 || st.DecayUpdates != 0 || st.Retired != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, p := range [][2]graph.Vertex{{2, 1}, {3, 4}} {
		if w := pairWeight(agg, p[0], p[1]) * agg.lambda; w != 0.25 {
			t.Fatalf("real weight of %v = %v, want 0.25", p, w)
		}
	}
}

// TestAggregatorPrunesStalePairs checks that a pair falling below PruneBelow
// is cancelled exactly (its deltas sum to zero) and dropped from the state.
func TestAggregatorPrunesStalePairs(t *testing.T) {
	src := NewSliceDocSource([]Document{
		doc(0, 1, 2),
		doc(50, 3), // 5 epochs: 1·0.5⁵ = 0.03125 < 0.1 → retire
	})
	agg := mustAggregator(src, AggregatorConfig{EpochLength: 10, Decay: 0.5, PruneBelow: 0.1})
	sum := 0.0
	for _, u := range flatten(drainAggregator(t, agg)) {
		if u.A != 1 || u.B != 2 {
			t.Fatalf("unexpected pair in %+v", u)
		}
		sum += u.Delta
	}
	if sum != 0 {
		t.Fatalf("retired pair's deltas sum to %v, want exactly 0", sum)
	}
	st := agg.Stats()
	if st.Retired != 1 || st.TrackedPairs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAggregatorRejectsTimeRegression pins the monotone-time requirement.
func TestAggregatorRejectsTimeRegression(t *testing.T) {
	src := NewSliceDocSource([]Document{doc(10, 1, 2), doc(5, 3, 4)})
	agg := mustAggregator(src, AggregatorConfig{EpochLength: 10})
	if _, err := recordBatches(agg); err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("recordBatches = %v, want time-regression error", err)
	}
}

// TestAggregatorMirrorsEngineGraph is the key pipeline invariant: at every
// drained boundary — after each document's last batch, once the engine has
// applied everything the aggregator ingested — the engine graph holds exactly
// the aggregator's tracked pairs, with the same float64 weights bit for bit.
// (An epoch tick's batch is handed out after the document that crossed the
// epoch was ingested, so at that boundary the aggregator already holds the
// document's pairs.) The engine applies every delta the aggregator emits and
// nothing else, so the mirror never drifts and decay deltas are never
// clamped, and a fold relabels both sides by the same power of two at the
// same unit. Five configurations span epoch lengths 1–25 and decays
// 0.3–0.97; one folds λ ten times, and one retires more than 1 000 pairs.
func TestAggregatorMirrorsEngineGraph(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   AggregatorConfig
		check func(AggregatorStats) bool // what the run must have exercised
	}{
		{"epoch=1/decay=0.3/fold", AggregatorConfig{EpochLength: 1, Decay: 0.3, PruneBelow: 0.05},
			func(st AggregatorStats) bool { return st.Renorms >= 2 }},
		{"epoch=2/decay=0.5/retire", AggregatorConfig{EpochLength: 2, Decay: 0.5, PruneBelow: 0.05},
			func(st AggregatorStats) bool { return st.Retired > 1000 }},
		{"epoch=5/decay=0.7", AggregatorConfig{EpochLength: 5, Decay: 0.7, PruneBelow: 0.05}, nil},
		{"epoch=10/decay=0.9", AggregatorConfig{EpochLength: 10, Decay: 0.9, PruneBelow: 0.05}, nil},
		{"epoch=25/decay=0.97", AggregatorConfig{EpochLength: 25, Decay: 0.97, PruneBelow: 0.05}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			docs := MustDocSynthetic(DocSynthConfig{
				BackgroundEntities: 30,
				Stories:            3,
				StorySize:          4,
				Docs:               3000,
				Seed:               1,
				BackgroundSkew:     1.1,
			})
			agg := mustAggregator(docs, tc.cfg)
			eng := core.MustNew(core.Config{T: 25, Nmax: 4})
			r := NewReplay(agg, eng, nil)
			batches, checked := 0, 0
			r.SetBoundaryHook(func() error {
				batches++
				if !agg.Drained() {
					return nil
				}
				checked++
				g := eng.Graph()
				if tracked := agg.Stats().TrackedPairs; g.NumEdges() != tracked {
					return fmt.Errorf("batch %d: %d graph edges, %d tracked pairs", batches, g.NumEdges(), tracked)
				}
				var err error
				g.Edges(func(u, v graph.Vertex, w float64) {
					if got := pairWeight(agg, u, v); err == nil && math.Float64bits(got) != math.Float64bits(w) {
						err = fmt.Errorf("batch %d: edge {%d,%d}: engine weight %v, aggregator %v", batches, u, v, w, got)
					}
				})
				return err
			})
			if _, err := r.RunBatches(0, false); err != nil {
				t.Fatal(err)
			}
			st := agg.Stats()
			if checked < st.Docs/2 || st.Retired == 0 || (tc.check != nil && !tc.check(st)) {
				t.Fatalf("workload too weak to validate the mirror: %+v", st)
			}
		})
	}
}

// TestAggregatorDeterministic replays one document stream twice and requires
// identical batch streams.
func TestAggregatorDeterministic(t *testing.T) {
	cfg := DocSynthConfig{BackgroundEntities: 20, Stories: 1, StorySize: 3, Docs: 150, Seed: 3}
	aggCfg := AggregatorConfig{EpochLength: 25, Decay: 0.5}
	a := drainAggregator(t, mustAggregator(MustDocSynthetic(cfg), aggCfg))
	b := drainAggregator(t, mustAggregator(MustDocSynthetic(cfg), aggCfg))
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
	requireSameBatches(t, "second run", b, a)
}

func TestAggregatorValidation(t *testing.T) {
	src := NewSliceDocSource(nil)
	bad := []AggregatorConfig{
		{EpochLength: 0},
		{EpochLength: 10, Decay: 1.5},
		{EpochLength: 10, Decay: -0.5},
		{EpochLength: 10, Decay: math.NaN()},
		{EpochLength: 10, DocWeight: -1},
		{EpochLength: 10, DocWeight: math.Inf(1)},
		{EpochLength: 10, PruneBelow: math.NaN()},
		{EpochLength: 10, DecayMode: 1}, // the retired per-pair sweep
	}
	for i, cfg := range bad {
		if _, err := NewAggregator(src, cfg); err == nil {
			t.Errorf("config %d (%+v) accepted, want error", i, cfg)
		}
	}
}

// TestAggregatorNextBatchGroups pins the aggregator's natural batch
// structure: each epoch tick is one Decay batch carrying the threshold unit,
// each document's positive co-occurrence deltas another, a pairless document
// none — the same group sequence the reference sweep cuts.
func TestAggregatorNextBatchGroups(t *testing.T) {
	docs := []Document{
		{Time: 0, Entities: []vset.Vertex{1, 2, 3}},
		{Time: 10, Entities: []vset.Vertex{1, 2}},
		{Time: 60, Entities: []vset.Vertex{2, 3, 4}}, // crosses an epoch boundary: threshold unit first
		{Time: 70, Entities: []vset.Vertex{9}},       // single entity: no pairs, no batch
		{Time: 130, Entities: []vset.Vertex{1, 4}},   // another boundary
	}
	cfg := AggregatorConfig{EpochLength: 50, Decay: 0.5, PruneBelow: -1}
	batches := drainAggregator(t, mustAggregator(NewSliceDocSource(docs), cfg))

	wantShape := []struct {
		n     int
		scale float64 // threshold unit's Scale; 0 for a document batch
	}{
		{3, 0},   // {1,2,3}: 3 pairs
		{1, 0},   // {1,2}
		{0, 0.5}, // epoch 1
		{3, 0},   // {2,3,4}
		{0, 0.25},
		{1, 0}, // {1,4}
	}
	ref := fade.Sweep(docs, fadeConfig(cfg))
	if len(batches) != len(wantShape) || len(ref.Groups) != len(wantShape) {
		t.Fatalf("got %d batches and %d reference groups, want %d: %+v", len(batches), len(ref.Groups), len(wantShape), batches)
	}
	for i, w := range wantShape {
		b := batches[i]
		if len(b.updates) != w.n || b.decay != (w.scale != 0) || (b.threshold == nil) != (w.scale == 0) ||
			(b.threshold != nil && b.threshold.Scale != w.scale) {
			t.Errorf("batch %d: decay=%v n=%d threshold=%v, want n=%d scale=%v", i, b.decay, len(b.updates), b.threshold, w.n, w.scale)
		}
		// Same pairs as the reference's document groups; the deltas differ
		// by the normalization 1/λ.
		samePairs := func(x, y Update) bool { return x.A == y.A && x.B == y.B }
		if g := ref.Groups[i]; g.Epoch != b.decay || (!g.Epoch && !slices.EqualFunc(g.Updates, b.updates, samePairs)) {
			t.Errorf("batch %d: epoch=%v %v, reference group epoch=%v %v", i, b.decay, b.updates, g.Epoch, g.Updates)
		}
		for _, u := range b.updates {
			if u.Delta <= 0 {
				t.Errorf("document batch carries non-positive delta %+v", u)
			}
		}
	}
}
