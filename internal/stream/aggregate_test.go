package stream

import (
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/graph"
	"dyndens/internal/vset"
)

// docs builds a document from a timestamp and mentions.
func doc(time int64, entities ...vset.Vertex) Document {
	return Document{Time: time, Entities: vset.New(entities...)}
}

// TestAggregatorEmitsPairDeltas checks the basic co-occurrence expansion: a
// document with k entities yields k(k-1)/2 positive updates in sorted order.
func TestAggregatorEmitsPairDeltas(t *testing.T) {
	agg := MustAggregator(NewSliceDocSource([]Document{doc(0, 3, 1, 2)}),
		AggregatorConfig{EpochLength: 10, DocWeight: 2})
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	want := []Update{
		{A: 1, B: 2, Delta: 2},
		{A: 1, B: 3, Delta: 2},
		{A: 2, B: 3, Delta: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d updates, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("update %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	st := agg.Stats()
	if st.Docs != 1 || st.PairUpdates != 3 || st.DecayUpdates != 0 || st.TrackedPairs != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAggregatorFadesOnEpochTick pins the fading schedule: crossing an epoch
// boundary emits negative deltas that take every tracked pair to
// weight·Decay^elapsed, multiple elapsed epochs compound, and documents with
// fewer than two entities still advance time.
func TestAggregatorFadesOnEpochTick(t *testing.T) {
	src := NewSliceDocSource([]Document{
		doc(0, 1, 2),
		doc(9, 1, 2),  // same epoch: weight accumulates to 2
		doc(10, 3, 4), // epoch 1: {1,2} fades to 1
		doc(35, 5),    // epoch 3: two elapsed epochs compound on {1,2} and {3,4}
	})
	agg := MustAggregator(src, AggregatorConfig{EpochLength: 10, Decay: 0.5, PruneBelow: -1})
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	want := []Update{
		{A: 1, B: 2, Delta: 1},
		{A: 1, B: 2, Delta: 1},
		{A: 1, B: 2, Delta: -1}, // 2 → 1
		{A: 3, B: 4, Delta: 1},
		{A: 1, B: 2, Delta: -0.75}, // 1 → 0.25 (two epochs)
		{A: 3, B: 4, Delta: -0.75}, // 1 → 0.25
	}
	if len(got) != len(want) {
		t.Fatalf("got %d updates %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i].A != want[i].A || got[i].B != want[i].B || math.Abs(got[i].Delta-want[i].Delta) > 1e-12 {
			t.Errorf("update %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	st := agg.Stats()
	if st.Epochs != 3 || st.DecayUpdates != 3 || st.Retired != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if w := agg.Weight(2, 1); math.Abs(w-0.25) > 1e-12 {
		t.Fatalf("Weight(2,1) = %v, want 0.25", w)
	}
}

// TestAggregatorPrunesStalePairs checks that a pair falling below PruneBelow
// is cancelled exactly (its deltas sum to zero) and dropped from the state.
func TestAggregatorPrunesStalePairs(t *testing.T) {
	src := NewSliceDocSource([]Document{
		doc(0, 1, 2),
		doc(50, 3), // 5 epochs: 1·0.5⁵ = 0.03125 < 0.1 → retire
	})
	agg := MustAggregator(src, AggregatorConfig{EpochLength: 10, Decay: 0.5, PruneBelow: 0.1})
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, u := range got {
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
	agg := MustAggregator(src, AggregatorConfig{EpochLength: 10})
	if _, err := Drain(agg); err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("Drain = %v, want time-regression error", err)
	}
}

// TestAggregatorMirrorsEngineGraph is the key pipeline invariant: after
// replaying the aggregated stream, the engine graph's edge weights equal the
// aggregator's tracked weights exactly (the engine applies every delta the
// aggregator emits and nothing else, so the mirror never drifts and decay
// deltas are never clamped).
func TestAggregatorMirrorsEngineGraph(t *testing.T) {
	gen := MustDocSynthetic(DocSynthConfig{
		BackgroundEntities: 30,
		Stories:            2,
		StorySize:          4,
		Docs:               400,
		Seed:               11,
	})
	agg := MustAggregator(gen, AggregatorConfig{EpochLength: 40, Decay: 0.5, PruneBelow: 0.05})
	eng := core.MustNew(core.Config{T: 3, Nmax: 5})
	if _, err := NewReplay(agg, eng, nil).RunBatches(0, false); err != nil {
		t.Fatal(err)
	}
	st := agg.Stats()
	if st.Docs != 400 || st.PairUpdates == 0 || st.DecayUpdates == 0 || st.Retired == 0 {
		t.Fatalf("workload too weak to validate the mirror: %+v", st)
	}
	checked := 0
	for a := graph.Vertex(0); a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			if got, want := eng.Graph().Weight(a, b), agg.Weight(a, b); math.Abs(got-want) > 1e-9 {
				t.Fatalf("edge {%d,%d}: engine weight %v, aggregator %v", a, b, got, want)
			} else if want != 0 {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no tracked pairs in the checked vertex range")
	}
}

// TestAggregatorDeterministic replays one document stream twice and requires
// identical update streams.
func TestAggregatorDeterministic(t *testing.T) {
	cfg := DocSynthConfig{BackgroundEntities: 20, Stories: 1, StorySize: 3, Docs: 150, Seed: 3}
	aggCfg := AggregatorConfig{EpochLength: 25, Decay: 0.5}
	a, err := Drain(MustAggregator(MustDocSynthetic(cfg), aggCfg))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Drain(MustAggregator(MustDocSynthetic(cfg), aggCfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stream lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAggregatorValidation(t *testing.T) {
	src := NewSliceDocSource(nil)
	bad := []AggregatorConfig{
		{EpochLength: 0},
		{EpochLength: 10, Decay: 1.5},
		{EpochLength: 10, Decay: -0.5},
		{EpochLength: 10, DocWeight: -1},
		{EpochLength: 10, DocWeight: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := NewAggregator(src, cfg); err == nil {
			t.Errorf("config %d (%+v) accepted, want error", i, cfg)
		}
	}
}

// TestAggregatorNextBatchGroups pins the aggregator's natural batch
// structure: each epoch tick's decay burst is one Decay batch, each
// document's positive co-occurrence deltas another, and the concatenation of
// all batches equals the per-update Next stream exactly.
func TestAggregatorNextBatchGroups(t *testing.T) {
	docs := []Document{
		{Time: 0, Entities: []vset.Vertex{1, 2, 3}},
		{Time: 10, Entities: []vset.Vertex{1, 2}},
		{Time: 60, Entities: []vset.Vertex{2, 3, 4}}, // crosses an epoch boundary: decay burst first
		{Time: 70, Entities: []vset.Vertex{9}},       // single entity: no pairs, no batch
		{Time: 130, Entities: []vset.Vertex{1, 4}},   // another boundary
	}
	cfg := AggregatorConfig{EpochLength: 50, Decay: 0.5, PruneBelow: -1}

	batched := MustAggregator(NewSliceDocSource(docs), cfg)
	var batches []Batch
	var flat []Update
	for {
		b, err := batched.NextBatch()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
		cp := Batch{Updates: append([]Update(nil), b.Updates...), Decay: b.Decay}
		batches = append(batches, cp)
		flat = append(flat, cp.Updates...)
	}

	sequential := MustAggregator(NewSliceDocSource(docs), cfg)
	want, err := Drain(sequential)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(flat, want) {
		t.Fatalf("batched stream %v != sequential %v", flat, want)
	}

	// Shape: doc0 pairs, doc1 pairs, decay burst, doc2 pairs, decay burst,
	// doc4 pairs (the pairless doc contributes no batch).
	wantShape := []struct {
		decay bool
		n     int
	}{
		{false, 3}, // {1,2,3}: 3 pairs
		{false, 1}, // {1,2}
		{true, 3},  // fade of the 3 tracked pairs
		{false, 3}, // {2,3,4}
		{true, 5},  // fade of all 5 tracked pairs (one elapsed epoch)
		{false, 1}, // {1,4}
	}
	if len(batches) != len(wantShape) {
		t.Fatalf("got %d batches, want %d: %+v", len(batches), len(wantShape), batches)
	}
	for i, w := range wantShape {
		if batches[i].Decay != w.decay || len(batches[i].Updates) != w.n {
			t.Errorf("batch %d: decay=%v n=%d, want decay=%v n=%d",
				i, batches[i].Decay, len(batches[i].Updates), w.decay, w.n)
		}
	}
	for _, b := range batches {
		for _, u := range b.Updates {
			if b.Decay && u.Delta >= 0 {
				t.Errorf("decay batch carries non-negative delta %+v", u)
			}
			if !b.Decay && u.Delta <= 0 {
				t.Errorf("document batch carries non-positive delta %+v", u)
			}
		}
	}
}
