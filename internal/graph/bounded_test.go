package graph

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/vset"
)

// checkBounded compares both bounded scans of g with the filtered reference.
func checkBounded(t *testing.T, g *Graph, c vset.Set, bound float64, buf *NeighborhoodBuf) {
	t.Helper()
	var want []weightedEdge
	for _, e := range refEdgesNotIncident(g, c) {
		if bound <= 0 || e.w >= bound {
			want = append(want, e)
		}
	}
	var got []weightedEdge
	g.EdgesNotIncident(c, bound, func(u, v Vertex, w float64) { got = append(got, weightedEdge{u, v, w}) })
	sortEdges(got)
	if !slices.Equal(got, want) {
		t.Fatalf("EdgesNotIncident(%v, %v) = %v, want %v", c, bound, got, want)
	}

	refVs, refWs := refNeighborhoodScores(g, c)
	var wantVs []Vertex
	var wantWs []float64
	for i, y := range refVs {
		if bound <= 0 || refWs[i] >= bound {
			wantVs = append(wantVs, y)
			wantWs = append(wantWs, refWs[i])
		}
	}
	gotVs, gotWs := g.NeighborhoodScores(c, bound, buf)
	if !slices.Equal(gotVs, wantVs) || !slices.Equal(gotWs, wantWs) {
		t.Fatalf("NeighborhoodScores(%v, %v) = %v %v, want %v %v", c, bound, gotVs, gotWs, wantVs, wantWs)
	}
	// The by-product bounds every vertex left out, and stays under the bound:
	// it is worth keeping only because it can tell a later scan it has nothing
	// to find.
	leftOut := 0.0
	for i, sum := range refWs {
		if !slices.Contains(gotVs, refVs[i]) {
			leftOut = max(leftOut, sum)
		}
	}
	if buf.Reach < leftOut*(1-1e-12) || (bound > 0 && buf.Reach >= bound) {
		t.Fatalf("NeighborhoodScores(%v, %v) reports reach %v; the heaviest vertex left out carries %v", c, bound, buf.Reach, leftOut)
	}
}

// checkHeavyIndex verifies the heavy-edge index against the graph: exactly
// the edges at or above the floor are indexed, each once, in the bucket of
// its exponent, with its current weight, at the position recorded for it.
func checkHeavyIndex(t *testing.T, g *Graph) {
	t.Helper()
	indexed := 0
	for i, b := range g.heavy {
		if b.exp < g.heavyFloor {
			t.Fatalf("bucket of exponent %d below the floor %d", b.exp, g.heavyFloor)
		}
		for _, o := range g.heavy[:i] {
			if o.exp == b.exp {
				t.Fatalf("two buckets of exponent %d", b.exp)
			}
		}
		for pos, e := range b.edges {
			if e.u >= e.v || e.w != g.Weight(e.u, e.v) || heavyExp(e.w) != b.exp {
				t.Fatalf("bucket %d holds %d-%d at weight %v, the graph has %v", b.exp, e.u, e.v, e.w, g.Weight(e.u, e.v))
			}
			if got, ok := g.heavyPos[heavyKey(e.u, e.v)]; !ok || int(got) != pos {
				t.Fatalf("edge %d-%d sits at %d of bucket %d, recorded at %d (%v)", e.u, e.v, pos, b.exp, got, ok)
			}
		}
		indexed += len(b.edges)
	}
	should := 0
	g.Edges(func(u, v Vertex, w float64) {
		if heavyExp(w) >= g.heavyFloor {
			should++
		}
	})
	if indexed != should || len(g.heavyPos) != should {
		t.Fatalf("index holds %d edges and %d positions, %d edges are at or above the floor", indexed, len(g.heavyPos), should)
	}
	if g.heavyFloor == heavyOff && (g.heavy != nil || g.heavyPos != nil) {
		t.Fatalf("the index is off and keeps %d buckets, %d positions", len(g.heavy), len(g.heavyPos))
	}
}

// TestBoundedScansMatchReference drives a graph with random inserts, weight
// changes and deletes and requires both bounded scans to equal the unbounded
// reference plus a filter, for bounds ≤ 0, bounds exactly on a weight or on a
// neighbourhood sum and just beside one, bounds far outside the weights, on
// the graph itself, on its Clone and on its NewFromState copy. Stretches of
// arbitrary bounds alternate with stretches without scans and stretches of
// high bounds only, so that sweeps switch the index off and raise its floor
// part of the way and scans lower it again; the stream continues on a copy
// now and then.
func TestBoundedScansMatchReference(t *testing.T) {
	const universe = 14
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		// Even trials use everyday weights, odd ones span 1e-150 … 1e150.
		weight := func() float64 { return 0.2 + 3*rng.Float64() }
		if trial%2 == 1 {
			weight = func() float64 { return math.Pow(10, -150+300*rng.Float64()) }
		}
		g := New()
		var buf NeighborhoodBuf
		raised := 0
		for step := 0; step < 1500; step++ {
			a, b := Vertex(rng.Intn(universe)), Vertex(rng.Intn(universe))
			floor := g.heavyFloor
			switch rng.Intn(4) {
			case 0:
				g.SetWeight(a, b, 0)
			case 1:
				g.Apply(Update{A: a, B: b, Delta: weight() * (rng.Float64() - 0.5)})
			default:
				g.SetWeight(a, b, weight())
			}
			if g.heavyFloor > floor {
				raised++
			}
			checkHeavyIndex(t, g)
			stretch := step / 250 % 3
			if step%3 != 0 || stretch == 1 {
				continue
			}

			c := randomSet(rng, denseIDs(universe), []float64{0, 0.15, 0.4}[rng.Intn(3)])
			var bound float64
			edges := refEdgesNotIncident(g, nil)
			switch {
			case len(edges) == 0 || rng.Intn(8) == 0:
				bound = []float64{0, -1, math.Inf(-1), math.Inf(1), 5e-324, math.MaxFloat64}[rng.Intn(6)]
			case rng.Intn(3) == 0:
				if _, sums := refNeighborhoodScores(g, c); len(sums) > 0 {
					bound = sums[rng.Intn(len(sums))]
					break
				}
				fallthrough
			default:
				bound = edges[rng.Intn(len(edges))].w
			}
			if stretch == 2 && len(edges) > 0 {
				bound = slices.MaxFunc(edges, func(a, b weightedEdge) int { return cmp.Compare(a.w, b.w) }).w
			}
			switch rng.Intn(4) {
			case 0:
				bound = math.Nextafter(bound, math.Inf(1))
			case 1:
				bound = math.Nextafter(bound, math.Inf(-1))
			case 2:
				bound *= []float64{0.25, 0.5, 2, 4}[rng.Intn(4)]
			}
			checkBounded(t, g, c, bound, &buf)
			checkHeavyIndex(t, g)

			if step%60 == 30 {
				clone, restored := g.Clone(), NewFromState(g.ExportState())
				for _, cp := range []*Graph{clone, restored} {
					checkBounded(t, cp, c, bound, &buf)
					checkHeavyIndex(t, cp)
				}
				checkBounded(t, g, c, bound, &buf) // the copies left the original alone
				if rng.Intn(2) == 0 {
					g = clone
				}
			}
		}
		if raised == 0 {
			t.Fatalf("trial %d: no sweep ever raised the floor", trial)
		}
	}
}

// TestNestedScanLowersFloor runs the scan the engine nests — a callback that
// starts another scan with a lower bound, which extends the index while the
// outer enumeration is over it.
func TestNestedScanLowersFloor(t *testing.T) {
	g := New()
	for v := Vertex(0); v < 40; v++ {
		g.SetWeight(v, v+1, float64(1+v%7))
	}
	outer, inner := 0, 0
	g.EdgesNotIncident(nil, 6, func(u, v Vertex, w float64) {
		outer++
		if w < 6 {
			t.Fatalf("outer scan yielded %d-%d of weight %v", u, v, w)
		}
		n := 0
		g.EdgesNotIncident(vset.New(u), 0.5, func(_, _ Vertex, _ float64) { n++ })
		inner = max(inner, n)
	})
	if outer != 10 || inner != 38 {
		t.Fatalf("outer scan saw %d edges, inner at most %d; want 10 and 38", outer, inner)
	}
	checkHeavyIndex(t, g)
}

// TestHeavyIndexIdleCost pins the cost model: a graph never asked a bounded
// edge question keeps no index at all, and one that was asked once gives the
// memory back after the question has not been repeated for a sweep period.
func TestHeavyIndexIdleCost(t *testing.T) {
	g := New()
	rng := rand.New(rand.NewSource(1))
	churn := func(n int) {
		for i := 0; i < n; i++ {
			g.SetWeight(Vertex(rng.Intn(50)), Vertex(rng.Intn(50)), 1+rng.Float64())
		}
	}
	churn(2000)
	g.EdgesNotIncident(nil, 0, func(_, _ Vertex, _ float64) {})
	if g.heavyFloor != heavyOff || g.heavy != nil {
		t.Fatalf("unbounded use built an index: floor %d, %d buckets", g.heavyFloor, len(g.heavy))
	}
	g.EdgesNotIncident(nil, 1.5, func(_, _ Vertex, _ float64) {})
	if g.heavyFloor == heavyOff || len(g.heavy) == 0 {
		t.Fatal("a bounded scan did not build the index")
	}
	churn(3 * (g.NumEdges()/4 + 64))
	if g.heavyFloor != heavyOff || g.heavy != nil {
		t.Fatalf("idle index survived two sweep periods: floor %d, %d buckets", g.heavyFloor, len(g.heavy))
	}
	checkHeavyIndex(t, g)
}
