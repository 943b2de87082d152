package fade

import (
	"math"
	"slices"
	"testing"

	"dyndens/internal/graph"
	"dyndens/internal/vset"
)

func doc(time int64, entities ...vset.Vertex) Doc {
	return Doc{Time: time, Entities: vset.New(entities...)}
}

// TestSweepFadesOnEpochTick pins the paper-literal schedule: crossing an
// epoch boundary emits negative deltas that take every tracked pair to
// weight·Decay^elapsed, multiple elapsed epochs compound, and documents with
// fewer than two entities still advance time.
func TestSweepFadesOnEpochTick(t *testing.T) {
	s := Sweep([]Doc{
		doc(0, 1, 2),
		doc(9, 1, 2),  // same epoch: weight accumulates to 2
		doc(10, 3, 4), // epoch 1: {1,2} fades to 1
		doc(35, 5),    // epoch 3: two elapsed epochs compound on {1,2} and {3,4}
	}, Config{EpochLength: 10, Decay: 0.5, DocWeight: 1})
	want := []graph.Update{
		{A: 1, B: 2, Delta: 1},
		{A: 1, B: 2, Delta: 1},
		{A: 1, B: 2, Delta: -1}, // 2 → 1
		{A: 3, B: 4, Delta: 1},
		{A: 1, B: 2, Delta: -0.75}, // 1 → 0.25 (two epochs)
		{A: 3, B: 4, Delta: -0.75}, // 1 → 0.25
	}
	if len(s.Updates) != len(want) {
		t.Fatalf("got %d updates %+v, want %d", len(s.Updates), s.Updates, len(want))
	}
	for i := range want {
		if got := s.Updates[i]; got.A != want[i].A || got.B != want[i].B || math.Abs(got.Delta-want[i].Delta) > 1e-12 {
			t.Errorf("update %d: got %+v, want %+v", i, got, want[i])
		}
	}
	if s.Retired != 0 || s.Touches != 3 {
		t.Fatalf("retired=%d touches=%d, want 0 and 3 (one pair, then two)", s.Retired, s.Touches)
	}
	if want := []float64{1, 2, 1, 1, 0.25, 0.25}; !slices.Equal(s.After, want) {
		t.Fatalf("After = %v, want %v", s.After, want)
	}
}

// TestSweepPrunesStalePairs checks that a pair falling below PruneBelow is
// cancelled exactly (its deltas sum to zero) and no longer swept.
func TestSweepPrunesStalePairs(t *testing.T) {
	s := Sweep([]Doc{
		doc(0, 1, 2),
		doc(50, 3), // 5 epochs: 1·0.5⁵ = 0.03125 < 0.1 → retire
		doc(60, 3), // nothing left to sweep
	}, Config{EpochLength: 10, Decay: 0.5, DocWeight: 1, PruneBelow: 0.1})
	sum := 0.0
	for _, u := range s.Updates {
		sum += u.Delta
	}
	if len(s.Updates) != 2 || sum != 0 {
		t.Fatalf("updates %+v sum to %v, want one add and its exact cancellation", s.Updates, sum)
	}
	if s.Retired != 1 || s.Touches != 1 {
		t.Fatalf("retired=%d touches=%d, want 1 and 1", s.Retired, s.Touches)
	}
	if !slices.Equal(s.After, []float64{1, 0}) {
		t.Fatalf("After = %v, want [1 0]: the add, then the retirement", s.After)
	}
}

// TestSweepGroups pins the batch structure: one group per document with
// pairs, and one epoch group per epoch crossing, even an empty one — the
// structure stream.Aggregator's NextBatch hands out.
func TestSweepGroups(t *testing.T) {
	s := Sweep([]Doc{
		doc(0, 1, 2, 3),
		doc(10, 1, 2),
		doc(60, 2, 3, 4), // crosses an epoch boundary: sweep first
		doc(70, 9),       // single entity: no pairs, no group
		doc(130, 1, 4),   // another boundary
		doc(200),         // a boundary whose sweep retires nothing and fades everything
	}, Config{EpochLength: 50, Decay: 0.5, DocWeight: 1})
	want := []struct {
		epoch bool
		n     int
	}{
		{false, 3}, {false, 1}, {true, 3}, {false, 3}, {true, 5}, {false, 1}, {true, 6},
	}
	if len(s.Groups) != len(want) {
		t.Fatalf("got %d groups, want %d: %+v", len(s.Groups), len(want), s.Groups)
	}
	n := 0
	for i, w := range want {
		g := s.Groups[i]
		if g.Epoch != w.epoch || len(g.Updates) != w.n {
			t.Errorf("group %d: epoch=%v n=%d, want epoch=%v n=%d", i, g.Epoch, len(g.Updates), w.epoch, w.n)
		}
		for _, u := range g.Updates {
			if g.Epoch != (u.Delta < 0) {
				t.Errorf("group %d (epoch=%v) carries delta %+v", i, g.Epoch, u)
			}
		}
		n += len(g.Updates)
	}
	if n != len(s.Updates) {
		t.Fatalf("groups hold %d updates, the stream %d", n, len(s.Updates))
	}

	// Fading off: epoch crossings cut no group.
	if s := Sweep([]Doc{doc(0, 1, 2), doc(100, 1, 2)}, Config{EpochLength: 10, Decay: 1, DocWeight: 1}); len(s.Groups) != 2 {
		t.Fatalf("Decay 1 cut %d groups, want 2 document groups", len(s.Groups))
	}
}

// TestSweepPanicsOnTimeRegression pins the monotone-time requirement.
func TestSweepPanicsOnTimeRegression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sweep accepted a document stream whose time went backwards")
		}
	}()
	Sweep([]Doc{doc(10, 1, 2), doc(5, 3, 4)}, Config{EpochLength: 10, Decay: 0.5, DocWeight: 1})
}
