package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/vset"
)

// refGraph is the map-of-maps adjacency representation the sorted-vector
// Graph replaced. The property tests below drive both representations with
// the same random update stream and require every query to agree, so the
// merge/scan rewrites of Score, ScoreWith, NeighborhoodScores and the edge
// enumerations are checked against the obviously-correct structure.
type refGraph struct {
	adj map[Vertex]map[Vertex]float64
}

func newRefGraph() *refGraph { return &refGraph{adj: make(map[Vertex]map[Vertex]float64)} }

func (r *refGraph) apply(u Update) {
	if u.A == u.B {
		return
	}
	w := r.adj[u.A][u.B] + u.Delta
	if w <= 0 {
		if _, ok := r.adj[u.A][u.B]; ok {
			delete(r.adj[u.A], u.B)
			delete(r.adj[u.B], u.A)
			if len(r.adj[u.A]) == 0 {
				delete(r.adj, u.A)
			}
			if len(r.adj[u.B]) == 0 {
				delete(r.adj, u.B)
			}
		}
		return
	}
	if r.adj[u.A] == nil {
		r.adj[u.A] = make(map[Vertex]float64)
	}
	if r.adj[u.B] == nil {
		r.adj[u.B] = make(map[Vertex]float64)
	}
	r.adj[u.A][u.B] = w
	r.adj[u.B][u.A] = w
}

func (r *refGraph) score(c vset.Set) float64 {
	var s float64
	for i := 0; i < len(c); i++ {
		for j := i + 1; j < len(c); j++ {
			s += r.adj[c[i]][c[j]]
		}
	}
	return s
}

func (r *refGraph) scoreWith(c vset.Set, u Vertex) float64 {
	var s float64
	for _, v := range c {
		if v != u {
			s += r.adj[u][v]
		}
	}
	return s
}

func (r *refGraph) neighborhoodScores(c vset.Set) map[Vertex]float64 {
	out := make(map[Vertex]float64)
	for _, v := range c {
		for y, w := range r.adj[v] {
			if !c.Contains(y) {
				out[y] += w
			}
		}
	}
	return out
}

// The unbounded scans the bounded ones replaced, kept as the reference: the
// |C|-way merge of the members' vectors and the walk over every vector. A
// bounded scan must return exactly what these return, filtered.

// refNeighborhoodScores merges the neighbourhood vectors of the vertices of c
// and returns Γ_C·ê_y for every y ∉ c adjacent to c, sorted by vertex, each
// sum taken over the members in increasing order.
func refNeighborhoodScores(g *Graph, c vset.Set) (vs []Vertex, ws []float64) {
	type cursor struct {
		vs  []Vertex
		ws  []float64
		pos int
	}
	var cursors []cursor
	for _, v := range c {
		if l := g.adj.Get(v); l != nil {
			cursors = append(cursors, cursor{vs: l.vs, ws: l.ws})
		}
	}
	for {
		var best Vertex
		found := false
		for i := range cursors {
			cur := &cursors[i]
			if cur.pos < len(cur.vs) && (!found || cur.vs[cur.pos] < best) {
				best, found = cur.vs[cur.pos], true
			}
		}
		if !found {
			return vs, ws
		}
		var sum float64
		for i := range cursors {
			cur := &cursors[i]
			if cur.pos < len(cur.vs) && cur.vs[cur.pos] == best {
				sum += cur.ws[cur.pos]
				cur.pos++
			}
		}
		if !c.Contains(best) {
			vs = append(vs, best)
			ws = append(ws, sum)
		}
	}
}

type weightedEdge struct {
	u, v Vertex
	w    float64
}

func sortEdges(es []weightedEdge) {
	slices.SortFunc(es, func(a, b weightedEdge) int {
		if a.u != b.u {
			return int(a.u) - int(b.u)
		}
		return int(a.v) - int(b.v)
	})
}

// refEdgesNotIncident walks every neighbourhood vector and returns the edges
// {u, v}, u < v, with neither endpoint in c, sorted.
func refEdgesNotIncident(g *Graph, c vset.Set) []weightedEdge {
	var out []weightedEdge
	for u, l := range g.adj.All() {
		if c.Contains(u) {
			continue
		}
		for i, v := range l.vs {
			if v > u && !c.Contains(v) {
				out = append(out, weightedEdge{u, v, l.ws[i]})
			}
		}
	}
	sortEdges(out)
	return out
}

// randomSet draws a subset of universe with each vertex included with
// probability p.
func randomSet(rng *rand.Rand, universe []Vertex, p float64) vset.Set {
	var c vset.Set
	for _, v := range universe {
		if rng.Float64() < p {
			c = c.Add(v)
		}
	}
	return c
}

// denseIDs returns the vertices 0, …, n−1.
func denseIDs(n int) []Vertex {
	vs := make([]Vertex, n)
	for i := range vs {
		vs[i] = Vertex(i)
	}
	return vs
}

// extremeIDs is a 16-vertex universe spread over the whole int32 range:
// negative IDs, 0, IDs that differ only in high bits, and the largest IDs,
// where an ID plus one overflows.
var extremeIDs = []Vertex{math.MinInt32, -1 << 30, -5, -1, 0, 1, 2, 1 << 16, 2 << 16, 1 << 30, 1<<30 + 1, 3 << 29, math.MaxInt32 - 2, math.MaxInt32 - 1, math.MaxInt32}

func TestSortedVectorsMatchMapReference(t *testing.T) {
	const (
		trials = 40
		steps  = 300
	)
	for trial := 0; trial < trials; trial++ {
		universe := denseIDs(16)
		if trial%2 == 1 {
			universe = extremeIDs
		}
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := New()
		ref := newRefGraph()
		var buf NeighborhoodBuf
		for step := 0; step < steps; step++ {
			u := Update{
				A:     universe[rng.Intn(len(universe))],
				B:     universe[rng.Intn(len(universe))],
				Delta: rng.Float64()*2 - 0.6, // mixed growth and decay
			}
			g.Apply(u)
			ref.apply(u)

			if step%10 != 0 {
				continue
			}
			// Point queries across the whole universe.
			for i, a := range universe {
				for _, b := range universe[i+1:] {
					if got, want := g.Weight(a, b), ref.adj[a][b]; math.Abs(got-want) > 1e-9 {
						t.Fatalf("trial %d step %d: Weight(%d,%d) = %v, want %v", trial, step, a, b, got, want)
					}
				}
			}
			// Subset queries on random sets of varying density.
			for _, p := range []float64{0.15, 0.4, 0.8} {
				c := randomSet(rng, universe, p)
				if got, want := g.Score(c), ref.score(c); math.Abs(got-want) > 1e-9 {
					t.Fatalf("trial %d step %d: Score(%v) = %v, want %v", trial, step, c, got, want)
				}
				for _, v := range universe {
					if got, want := g.ScoreWith(c, v), ref.scoreWith(c, v); math.Abs(got-want) > 1e-9 {
						t.Fatalf("trial %d step %d: ScoreWith(%v,%d) = %v, want %v", trial, step, c, v, got, want)
					}
				}
				vs, ws := g.NeighborhoodScores(c, 0, &buf)
				want := ref.neighborhoodScores(c)
				if len(vs) != len(want) {
					t.Fatalf("trial %d step %d: NeighborhoodScores(%v) has %d entries (%v), want %d (%v)",
						trial, step, c, len(vs), vs, len(want), want)
				}
				for i, y := range vs {
					if i > 0 && vs[i-1] >= y {
						t.Fatalf("trial %d step %d: NeighborhoodScores not strictly sorted: %v", trial, step, vs)
					}
					if w, ok := want[y]; !ok || math.Abs(ws[i]-w) > 1e-9 {
						t.Fatalf("trial %d step %d: NeighborhoodScores(%v)[%d] = %v, want %v", trial, step, c, y, ws[i], want[y])
					}
				}
			}
			// Edge enumeration parity: count and total weight, and the
			// enumeration order is ascending (u, v).
			gotN, gotW := 0, 0.0
			var prev weightedEdge
			g.Edges(func(u, v Vertex, w float64) {
				if u >= v || (gotN > 0 && (u < prev.u || u == prev.u && v <= prev.v)) {
					t.Fatalf("trial %d step %d: Edges yields %d-%d after %d-%d", trial, step, u, v, prev.u, prev.v)
				}
				prev = weightedEdge{u, v, w}
				gotN++
				gotW += w
			})
			wantN, wantW := 0, 0.0
			for u, nbrs := range ref.adj {
				for v, w := range nbrs {
					if u < v {
						wantN++
						wantW += w
					}
				}
			}
			if gotN != wantN || math.Abs(gotW-wantW) > 1e-6 {
				t.Fatalf("trial %d step %d: Edges = (%d, %v), want (%d, %v)", trial, step, gotN, gotW, wantN, wantW)
			}
			// EdgesNotIncident parity on a random excluded set.
			c := randomSet(rng, universe, 0.3)
			gotN, gotW = 0, 0.0
			g.EdgesNotIncident(c, 0, func(u, v Vertex, w float64) {
				if c.Contains(u) || c.Contains(v) || u >= v {
					t.Fatalf("trial %d step %d: EdgesNotIncident(%v) yielded %d-%d", trial, step, c, u, v)
				}
				gotN++
				gotW += w
			})
			wantN, wantW = 0, 0.0
			for u, nbrs := range ref.adj {
				if c.Contains(u) {
					continue
				}
				for v, w := range nbrs {
					if u < v && !c.Contains(v) {
						wantN++
						wantW += w
					}
				}
			}
			if gotN != wantN || math.Abs(gotW-wantW) > 1e-6 {
				t.Fatalf("trial %d step %d: EdgesNotIncident(%v) = (%d, %v), want (%d, %v)", trial, step, c, gotN, gotW, wantN, wantW)
			}
		}
	}
}

// TestAdjacencyVectorInvariant checks the representation invariant directly:
// after arbitrary updates every neighbourhood vector is strictly increasing
// and symmetric with its mirror entries.
func TestAdjacencyVectorInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	for i := 0; i < 2000; i++ {
		g.Apply(Update{
			A:     Vertex(rng.Intn(30)),
			B:     Vertex(rng.Intn(30)),
			Delta: rng.Float64()*3 - 1,
		})
	}
	for u := Vertex(0); u < 30; u++ {
		vs, ws := g.Neighborhood(u)
		if len(vs) != len(ws) {
			t.Fatalf("vertex %d: parallel vectors out of sync: %d vs %d", u, len(vs), len(ws))
		}
		for i, v := range vs {
			if i > 0 && vs[i-1] >= v {
				t.Fatalf("vertex %d: neighbourhood not strictly increasing: %v", u, vs)
			}
			if v == u {
				t.Fatalf("vertex %d: self-loop in neighbourhood", u)
			}
			if got := g.Weight(v, u); got != ws[i] {
				t.Fatalf("edge {%d,%d}: asymmetric weights %v vs %v", u, v, ws[i], got)
			}
		}
	}
}
