package core

import (
	"math"
	"slices"
	"testing"

	"dyndens/internal/graph"
)

// TestImportStateRejectsTamperedState restores an engine from an exported
// state tampered in each way the restore must catch: in the graph an edge out
// of canonical or sorted order, a weight that is not finite and positive, or
// edge slices of unequal length; in the index a vertex set or entry order
// that is not strictly increasing, an entry that is not dense under the
// restored schedule, a family on a base that is not too-dense, and a stored
// score the graph does not back.
func TestImportStateRejectsTamperedState(t *testing.T) {
	e := MustNew(Config{T: 1, Nmax: 4})
	e.ProcessBatch([]Update{
		{A: 1, B: 2, Delta: 4}, {A: 1, B: 3, Delta: 1.5}, {A: 2, B: 3, Delta: 1.5},
		{A: 5, B: 6, Delta: 1.2}, {A: 6, B: 7, Delta: 0.3},
	})
	e.ProcessThresholdBatch(0.75, nil)
	goodG, goodE := e.Graph().ExportState(), e.ExportState()
	star, plain := -1, -1 // a starred entry, and a pair that is not too-dense
	for i, de := range goodE.Dense {
		if de.Star {
			star = i
		} else if de.Set.Len() == 2 && !e.th.IsTooDense(de.Score, 2) {
			plain = i
		}
	}
	if star < 0 || plain < 0 || len(goodE.Dense) < 4 || len(goodG.EdgeU) < 4 {
		t.Fatalf("fixture: %d entries (family at %d, plain pair at %d) over %d edges", len(goodE.Dense), star, plain, len(goodG.EdgeU))
	}
	for _, c := range []struct {
		name   string
		tamper func(gs *graph.State, es *EngineState)
		ok     bool
	}{
		{"untouched", func(*graph.State, *EngineState) {}, true},
		{"edge u > v", func(gs *graph.State, _ *EngineState) { gs.EdgeU[0], gs.EdgeV[0] = gs.EdgeV[0], gs.EdgeU[0] }, false},
		{"edges out of order", func(gs *graph.State, _ *EngineState) {
			gs.EdgeU[0], gs.EdgeU[1] = gs.EdgeU[1], gs.EdgeU[0]
			gs.EdgeV[0], gs.EdgeV[1] = gs.EdgeV[1], gs.EdgeV[0]
			gs.EdgeW[0], gs.EdgeW[1] = gs.EdgeW[1], gs.EdgeW[0]
		}, false},
		{"edge listed twice", func(gs *graph.State, _ *EngineState) {
			gs.EdgeU[1], gs.EdgeV[1] = gs.EdgeU[0], gs.EdgeV[0]
		}, false},
		{"weight NaN", func(gs *graph.State, _ *EngineState) { gs.EdgeW[2] = math.NaN() }, false},
		{"weight +Inf", func(gs *graph.State, _ *EngineState) { gs.EdgeW[2] = math.Inf(1) }, false},
		{"weight 0", func(gs *graph.State, _ *EngineState) { gs.EdgeW[2] = 0 }, false},
		{"weight negative", func(gs *graph.State, _ *EngineState) { gs.EdgeW[2] = -1 }, false},
		{"weights short", func(gs *graph.State, _ *EngineState) { gs.EdgeW = gs.EdgeW[:len(gs.EdgeW)-1] }, false},
		{"set not increasing", func(_ *graph.State, es *EngineState) {
			s := es.Dense[star].Set
			s[0], s[1] = s[1], s[0]
		}, false},
		{"set with a repeated vertex", func(_ *graph.State, es *EngineState) {
			s := es.Dense[star].Set
			s[1] = s[0]
		}, false},
		{"entries out of order", func(_ *graph.State, es *EngineState) { es.Dense[0], es.Dense[1] = es.Dense[1], es.Dense[0] }, false},
		{"entry listed twice", func(_ *graph.State, es *EngineState) { es.Dense[1] = es.Dense[0] }, false},
		{"entry not dense", func(_ *graph.State, es *EngineState) { es.Dense[plain].Score = 1e-3 }, false},
		{"family on a base that is not too-dense", func(_ *graph.State, es *EngineState) {
			es.Dense[plain].Star, es.Dense[plain].StarScore = true, es.Dense[plain].Score
		}, false},
		{"score the graph does not back", func(_ *graph.State, es *EngineState) { es.Dense[star].Score *= 1.5 }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			gs := graph.State{EdgeU: slices.Clone(goodG.EdgeU), EdgeV: slices.Clone(goodG.EdgeV), EdgeW: slices.Clone(goodG.EdgeW)}
			es := EngineState{Scale: goodE.Scale, Dense: slices.Clone(goodE.Dense)}
			for i := range es.Dense {
				es.Dense[i].Set = es.Dense[i].Set.Clone()
			}
			c.tamper(&gs, &es)
			err := MustNew(Config{T: 1, Nmax: 4}).ImportState(gs, es)
			if c.ok != (err == nil) {
				t.Fatalf("ImportState returned %v", err)
			}
		})
	}
}
