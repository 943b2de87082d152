package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dyndens/internal/vset"
)

func TestApplyAndWeight(t *testing.T) {
	g := New()
	before, after := g.Apply(Update{A: 1, B: 2, Delta: 0.5})
	if before != 0 || after != 0.5 {
		t.Fatalf("Apply: before=%v after=%v", before, after)
	}
	if g.Weight(1, 2) != 0.5 || g.Weight(2, 1) != 0.5 {
		t.Fatalf("Weight not symmetric: %v %v", g.Weight(1, 2), g.Weight(2, 1))
	}
	before, after = g.Apply(Update{A: 2, B: 1, Delta: 0.25})
	if before != 0.5 || after != 0.75 {
		t.Fatalf("second Apply: before=%v after=%v", before, after)
	}
}

func TestApplyNegativeRemovesEdge(t *testing.T) {
	g := New()
	g.Apply(Update{A: 1, B: 2, Delta: 0.5})
	_, after := g.Apply(Update{A: 1, B: 2, Delta: -0.7})
	if after != 0 {
		t.Fatalf("weight should clamp to 0, got %v", after)
	}
	if degreeOf(g, 1) != 0 || degreeOf(g, 2) != 0 {
		t.Fatal("edge should be removed when weight reaches 0")
	}
	if g.NumEdges() != 0 || g.NumVertices() != 0 {
		t.Fatalf("counts not reset: edges=%d vertices=%d", g.NumEdges(), g.NumVertices())
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New()
	g.Apply(Update{A: 3, B: 3, Delta: 1})
	if g.NumEdges() != 0 {
		t.Fatal("self loop should be ignored")
	}
	if g.Weight(3, 3) != 0 {
		t.Fatal("self loop weight should be 0")
	}
}

// degreeOf returns the number of neighbours of u with non-zero edge weight.
func degreeOf(g *Graph, u Vertex) int {
	if l := g.adj.Get(u); l != nil {
		return len(l.vs)
	}
	return 0
}

func TestDegreeAndCounts(t *testing.T) {
	g := New()
	g.SetWeight(1, 2, 1)
	g.SetWeight(1, 3, 1)
	g.SetWeight(2, 3, 1)
	if degreeOf(g, 1) != 2 || degreeOf(g, 2) != 2 || degreeOf(g, 3) != 2 {
		t.Fatalf("degrees wrong: %d %d %d", degreeOf(g, 1), degreeOf(g, 2), degreeOf(g, 3))
	}
	if g.NumEdges() != 3 || g.NumVertices() != 3 {
		t.Fatalf("edges=%d vertices=%d", g.NumEdges(), g.NumVertices())
	}
}

func TestScore(t *testing.T) {
	g := New()
	g.SetWeight(1, 2, 0.8)
	g.SetWeight(1, 3, 1.0)
	g.SetWeight(2, 3, 1.1)
	g.SetWeight(3, 4, 1.0)
	c := vset.New(1, 2, 3)
	if got, want := g.Score(c), 2.9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Score = %v, want %v", got, want)
	}
	if got := g.Score(vset.New(1)); got != 0 {
		t.Fatalf("Score of singleton = %v", got)
	}
	if got, want := g.ScoreWith(c, 4), 1.0; got != want {
		t.Fatalf("ScoreWith = %v, want %v", got, want)
	}
	if got, want := g.ScoreWith(c, 1), 1.8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ScoreWith(member) = %v, want %v", got, want)
	}
}

func TestNeighborhoodScores(t *testing.T) {
	g := New()
	g.SetWeight(1, 2, 0.8)
	g.SetWeight(1, 3, 1.0)
	g.SetWeight(2, 3, 1.1)
	g.SetWeight(3, 4, 1.0)
	g.SetWeight(2, 4, 0.5)
	g.SetWeight(4, 5, 9.0)
	var buf NeighborhoodBuf
	vs, ws := g.NeighborhoodScores(vset.New(2, 3), 0, &buf)
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 4 {
		t.Fatalf("expected neighbours [1 4], got %v", vs)
	}
	if math.Abs(ws[0]-1.8) > 1e-12 {
		t.Errorf("score of 1 = %v, want 1.8", ws[0])
	}
	if math.Abs(ws[1]-1.5) > 1e-12 {
		t.Errorf("score of 4 = %v, want 1.5", ws[1])
	}
	// A bound keeps the vertices that reach it, a bound on the value included.
	if vs, ws := g.NeighborhoodScores(vset.New(2, 3), 1.8, &buf); len(vs) != 1 || vs[0] != 1 || ws[0] != 0.8+1.0 {
		t.Fatalf("need 1.8: got %v %v, want [1] [1.8]", vs, ws)
	}
	if vs, _ := g.NeighborhoodScores(vset.New(2, 3), 1.9, &buf); len(vs) != 0 {
		t.Fatalf("need 1.9: got %v, want none", vs)
	}
	// Reusing a warm buffer must be allocation-free.
	c := vset.New(2, 3)
	allocs := testing.AllocsPerRun(100, func() {
		g.NeighborhoodScores(c, 0, &buf)
		g.NeighborhoodScores(c, 1.6, &buf)
	})
	if allocs != 0 {
		t.Fatalf("NeighborhoodScores allocated %v times per warm call", allocs)
	}
}

func TestNeighborsSortedAndVertices(t *testing.T) {
	g := New()
	g.SetWeight(5, 1, 0.5)
	g.SetWeight(5, 9, 0.9)
	g.SetWeight(5, 3, 0.3)
	vs, ws := g.Neighborhood(5)
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 3 || vs[2] != 9 {
		t.Fatalf("Neighborhood vertices = %v", vs)
	}
	if ws[0] != 0.5 || ws[1] != 0.3 || ws[2] != 0.9 {
		t.Fatalf("Neighborhood weights = %v", ws)
	}
	if n := g.NumVertices(); n != 4 {
		t.Fatalf("NumVertices = %d, want 4", n)
	}
}

func TestEdgesNotIncident(t *testing.T) {
	g := New()
	g.SetWeight(1, 2, 1)
	g.SetWeight(3, 4, 1)
	g.SetWeight(2, 3, 1)
	for _, tc := range []struct {
		minW float64
		want int
	}{{0, 1}, {-1, 1}, {0.5, 1}, {1, 1}, {1.5, 0}} {
		count := 0
		g.EdgesNotIncident(vset.New(1, 2), tc.minW, func(u, v Vertex, w float64) {
			count++
			if u != 3 || v != 4 {
				t.Errorf("minW %v: unexpected edge %d-%d", tc.minW, u, v)
			}
		})
		if count != tc.want {
			t.Fatalf("minW %v: got %d edges not incident, want %d", tc.minW, count, tc.want)
		}
	}
}

func TestEdgesEnumeratesEachOnce(t *testing.T) {
	g := New()
	g.SetWeight(1, 2, 1)
	g.SetWeight(2, 3, 2)
	g.SetWeight(1, 3, 3)
	seen := map[[2]Vertex]float64{}
	g.Edges(func(u, v Vertex, w float64) { seen[[2]Vertex{u, v}] = w })
	if len(seen) != 3 {
		t.Fatalf("Edges enumerated %d edges, want 3: %v", len(seen), seen)
	}
}

// TestCloneIndependence: the graph's copy, NewFromState(ExportState()),
// shares no storage with the original.
func TestCloneIndependence(t *testing.T) {
	g := New()
	g.SetWeight(1, 2, 1)
	h, err := NewFromState(g.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	h.SetWeight(1, 2, 5)
	if g.Weight(1, 2) != 1 {
		t.Fatal("the copy is not independent")
	}
	if h.Weight(1, 2) != 5 || h.NumEdges() != 1 {
		t.Fatal("the copy lost data")
	}
}

// Property: after a random sequence of updates, Score over a random subset
// equals the sum of pairwise Weight calls.
func TestScoreMatchesPairwiseWeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		for i := 0; i < 100; i++ {
			a := Vertex(rng.Intn(12))
			b := Vertex(rng.Intn(12))
			g.Apply(Update{A: a, B: b, Delta: rng.Float64()*2 - 0.5})
		}
		var c vset.Set
		for v := Vertex(0); v < 12; v++ {
			if rng.Intn(2) == 0 {
				c = c.Add(v)
			}
		}
		want := 0.0
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				want += g.Weight(c[i], c[j])
			}
		}
		return math.Abs(g.Score(c)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: total weight equals the sum over enumerated edges, and edge count
// matches, after arbitrary update sequences.
func TestInvariantCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		for i := 0; i < 200; i++ {
			a := Vertex(rng.Intn(10))
			b := Vertex(rng.Intn(10))
			g.Apply(Update{A: a, B: b, Delta: rng.Float64() - 0.4})
		}
		sum, n := 0.0, 0
		g.Edges(func(u, v Vertex, w float64) { sum += w; n++ })
		return n == g.NumEdges() && math.Abs(sum-g.totalWeight) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
