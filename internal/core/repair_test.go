package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dyndens/internal/density"
)

// repairRun drives two engines through the same random planted stream: one
// repairs a batch whose pairs all fell through the subgraphs holding both
// endpoints of each pair, the other (wholeIndexRepair) walks the whole index
// for it. Two cliques share vertex 3, and the triangle {8,9,10} is heavy
// enough to be too-dense and carry an ImplicitTooDense family; the stream's
// threshold units retire or cut pairs inside all three, among light noise.
type repairRun struct {
	rng    *rand.Rand
	e, ref *Engine
	scale  float64
}

var repairSets = [3][]Vertex{{0, 1, 2, 3}, {3, 4, 5, 6}, {8, 9, 10}}

const repairVertices = 14

// pair returns a random pair inside a planted set, or anywhere.
func (r *repairRun) pair() (Vertex, Vertex) {
	if r.rng.Intn(4) > 0 {
		set := repairSets[r.rng.Intn(len(repairSets))]
		i, j := r.rng.Intn(len(set)), r.rng.Intn(len(set)-1)
		if j >= i {
			j++
		}
		return set[i], set[j]
	}
	a, b := Vertex(r.rng.Intn(repairVertices)), Vertex(r.rng.Intn(repairVertices-1))
	if b >= a {
		b++
	}
	return a, b
}

// raise returns a positive update: heavy inside the planted sets, light in
// the noise, relative to the threshold in force.
func (r *repairRun) raise() Update {
	a, b := r.pair()
	t := r.e.Config().T
	if r.rng.Intn(3) == 0 {
		return Update{A: a, B: b, Delta: (0.02 + 0.1*r.rng.Float64()) * t}
	}
	return Update{A: a, B: b, Delta: (0.3 + 0.9*r.rng.Float64()) * t}
}

// cancellations returns 1–6 negative deltas: whole retirements and cuts of
// random fractions, a pair now and then twice, and now and then a pair with
// no edge.
func (r *repairRun) cancellations() []Update {
	out := make([]Update, 1+r.rng.Intn(6))
	for i := range out {
		a, b := r.pair()
		w := r.e.Graph().Weight(a, b)
		switch k := r.rng.Intn(6); {
		case k < 2:
			out[i] = Update{A: a, B: b, Delta: -w}
		case k < 3 && i > 0:
			out[i] = out[i-1]
			out[i].Delta /= 2
		default:
			out[i] = Update{A: b, B: a, Delta: -(0.05 + 0.6*r.rng.Float64()) * w}
		}
	}
	return out
}

// unit draws one stream unit and returns its description and the call that
// applies it to an engine.
func (r *repairRun) unit() (string, func(e *Engine) []Event) {
	switch k := r.rng.Intn(20); {
	case k < 7:
		batch := make([]Update, 1+r.rng.Intn(5))
		for i := range batch {
			batch[i] = r.raise()
		}
		return fmt.Sprintf("ProcessBatch %v", batch), func(e *Engine) []Event { return e.ProcessBatch(batch) }
	case k < 9:
		batch := r.cancellations()
		return fmt.Sprintf("ProcessBatch %v", batch), func(e *Engine) []Event { return e.ProcessBatch(batch) }
	case k < 19:
		switch m := r.rng.Intn(5); {
		case m < 3:
			r.scale *= 0.9 + 0.1*r.rng.Float64()
		case m < 4:
			r.scale = min(1, r.scale/(0.9+0.1*r.rng.Float64()))
		}
		scale, batch := r.scale, r.cancellations()
		return fmt.Sprintf("ProcessThresholdBatch %v %v", scale, batch), func(e *Engine) []Event {
			return e.ProcessThresholdBatch(scale, batch)
		}
	default:
		// A fold: every weight cut a little under a scale below the fold
		// floor, so the unit relabels both engines by a power of two too.
		f := 0.95 + 0.05*r.rng.Float64()
		var batch []Update
		r.e.Graph().Edges(func(u, v Vertex, w float64) {
			batch = append(batch, Update{A: u, B: v, Delta: w*f - w})
		})
		scale := r.scale * 0x1p-520
		r.scale, _ = density.Fold(scale)
		return fmt.Sprintf("fold of %v with cuts of %d pairs", scale, len(batch)), func(e *Engine) []Event {
			return e.ProcessThresholdBatch(scale, batch)
		}
	}
}

// TestPairLocalRepairMatchesWholeIndex is the differential test of
// batchRepair's pair-local route: over random planted streams it must emit
// the same events, count the same work and leave the same index as the
// whole-index walk, unit by unit, with the index and every reach certificate
// valid after each one.
func TestPairLocalRepairMatchesWholeIndex(t *testing.T) {
	var pairLocal, whole, repaired, starBases int
	for seed := int64(1); seed <= 20; seed++ {
		cfg := Config{T: 1, Nmax: 4}
		r := &repairRun{rng: rand.New(rand.NewSource(seed)), e: MustNew(cfg), ref: MustNew(cfg), scale: 1}
		r.ref.wholeIndexRepair = true
		var plant []Update
		for _, set := range repairSets {
			for i, a := range set {
				for _, b := range set[i+1:] {
					plant = append(plant, Update{A: a, B: b, Delta: 2.5})
				}
			}
		}
		r.e.ProcessBatch(plant)
		r.ref.ProcessBatch(plant)
		for step := 0; step < 250; step++ {
			desc, apply := r.unit()
			label := fmt.Sprintf("seed %d step %d: %s", seed, step, desc)
			dense, stars, before := r.e.ix.Len(), r.e.ix.StarCount(), r.e.Stats()
			base := r.e.ix.LookupDense(repairSets[2])
			starred := base != nil && r.e.ix.HasStar(base)
			got, want := apply(r.e), apply(r.ref)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: events\n got %v\nwant %v", label, got, want)
			}
			if g, w := r.e.Stats(), r.ref.Stats(); g != w {
				t.Fatalf("%s: stats\n got %+v\nwant %+v", label, g, w)
			}
			if !reflect.DeepEqual(r.e.ExportState(), r.ref.ExportState()) {
				t.Fatalf("%s: the routes left different indexes", label)
			}
			checkValid(t, r.e, label)
			if len(r.e.batchRaised) > 0 || len(r.e.batchNet) == 0 || r.e.stats.Batches == before.Batches {
				continue
			}
			if len(r.e.batchNet) > dense {
				whole++
				continue
			}
			pairLocal++
			after := r.e.Stats()
			if after.Evictions != before.Evictions || after.Events != before.Events || after.IndexedStars != stars {
				repaired++
			}
			if starred && slices.ContainsFunc(r.e.batchNet, func(p pairDelta) bool {
				a, b := unpackPair(p.key)
				return slices.Contains(repairSets[2], a) && slices.Contains(repairSets[2], b)
			}) {
				starBases++
			}
		}
	}
	t.Logf("negative-only units: %d pair-local (%d evicted, reported or unstarred; %d cut a star base), %d whole-index",
		pairLocal, repaired, starBases, whole)
	if pairLocal == 0 || whole == 0 || repaired == 0 || starBases == 0 {
		t.Fatal("the streams do not exercise both routes, repairs, and a star base")
	}
}

// annotatedSets returns the indexed subgraphs the current unit annotated —
// the ones batchRepair's pair-local route reached.
func annotatedSets(e *Engine) []string {
	var out []string
	for _, n := range e.denseSnapshot() {
		if _, ok := e.ix.Annotation(n); ok {
			out = append(out, n.Set().Key())
		}
	}
	return out
}

// TestRepairRouteFollowsSizes pins the route choice on the two sizes it
// reads: a unit with no more cancelled pairs than the index has dense
// subgraphs reaches only those holding both endpoints of a pair, and one
// with more walks the whole index.
func TestRepairRouteFollowsSizes(t *testing.T) {
	e := MustNew(Config{T: 1, Nmax: 4})
	e.ProcessBatch([]Update{{A: 0, B: 1, Delta: 2}, {A: 0, B: 2, Delta: 2}, {A: 1, B: 2, Delta: 2}})
	var light []Update
	for v := Vertex(10); v < 16; v++ {
		light = append(light, Update{A: v, B: v + 10, Delta: 0.25})
	}
	e.ProcessBatch(light)
	if e.DenseCount() != 4 {
		t.Fatalf("fixture: %d dense subgraphs, want the triangle and its pairs", e.DenseCount())
	}
	cut := func(extra int) []Update {
		us := []Update{{A: 1, B: 0, Delta: -1.0 / 64}}
		for _, u := range light[:extra] {
			us = append(us, Update{A: u.A, B: u.B, Delta: -1.0 / 64})
		}
		return us
	}
	e.ProcessThresholdBatch(1, cut(3)) // 4 pairs, 4 dense subgraphs
	if got, want := annotatedSets(e), []string{"0,1", "0,1,2"}; !slices.Equal(got, want) {
		t.Fatalf("a 4-pair unit repaired %v, want the subgraphs holding 0 and 1: %v", got, want)
	}
	e.ProcessThresholdBatch(1, cut(4)) // 5 pairs
	if got := annotatedSets(e); len(got) != 0 {
		t.Fatalf("a 5-pair unit took the pair-local route (it reached %v)", got)
	}
	checkValid(t, e, "after the cuts")
}
