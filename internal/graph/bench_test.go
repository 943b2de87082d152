package graph

import (
	"math/rand"
	"testing"
)

// sinkWeight keeps the benchmarked results alive.
var sinkWeight float64

// BenchmarkApplyHub times Graph.Apply at a hub of degree 2 000 — a popular
// entity of a co-occurrence graph — whose neighbours have a few edges each.
// Six of every eight updates change the weight of one of the hub's edges,
// from either end; the other two remove such an edge and insert it back, so
// the hub's vector shifts both ways and its degree stays put.
func BenchmarkApplyHub(b *testing.B) {
	const (
		hub    = Vertex(1 << 20)
		degree = 2000
	)
	rng := rand.New(rand.NewSource(1))
	g := New()
	spoke := func() Vertex { return Vertex(3 * (1 + rng.Intn(degree))) }
	for v := Vertex(1); v <= degree; v++ {
		g.Apply(Update{A: hub, B: 3 * v, Delta: 1 + rng.Float64()})
		g.Apply(Update{A: 3 * v, B: spoke() + 1, Delta: 1})
		g.Apply(Update{A: 3 * v, B: spoke() + 2, Delta: 1})
	}
	ops := make([]Update, 0, 4096)
	for len(ops) < cap(ops) {
		for k := 0; k < 3; k++ {
			v, d := spoke(), 0.25*rng.Float64()
			ops = append(ops, Update{A: hub, B: v, Delta: d}, Update{A: v, B: hub, Delta: -d})
		}
		v := spoke()
		ops = append(ops, Update{A: v, B: hub, Delta: -1e300}, Update{A: hub, B: v, Delta: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, after := g.Apply(ops[i%len(ops)])
		sinkWeight += after
	}
	b.StopTimer()
	// Finish the round of eight, whose last op re-inserts the edge its
	// seventh removed, before checking the degree.
	for i := b.N; i%8 != 0; i++ {
		g.Apply(ops[i%len(ops)])
	}
	if degreeOf(g, hub) != degree {
		b.Fatalf("hub degree %d, want %d", degreeOf(g, hub), degree)
	}
}

// BenchmarkApplyChurn times Graph.Apply as a fading co-occurrence stream
// drives it: transient entities, each with edges to four of 1 000 resident
// vertices and to the entity before it, enter the graph and leave it again 64
// entities later, when their last edge retires. An op is one entity entering
// and one leaving, ten Apply calls; in steady state every entity reuses the
// vectors an earlier one freed.
func BenchmarkApplyChurn(b *testing.B) {
	const (
		residents = 1000
		live      = 64
		transient = 4096
	)
	rng := rand.New(rand.NewSource(1))
	g := New()
	for v := Vertex(0); v < residents; v++ {
		g.Apply(Update{A: v, B: (v + 1) % residents, Delta: 1})
	}
	// The edges of transient entity i, in the order they enter.
	edges := make([][]Update, transient)
	for i := range edges {
		x := Vertex(residents + i)
		for k := 0; k < 4; k++ {
			edges[i] = append(edges[i], Update{A: x, B: Vertex(rng.Intn(residents)), Delta: 0.5 + rng.Float64()})
		}
		edges[i] = append(edges[i], Update{A: x, B: residents + Vertex((i+transient-1)%transient), Delta: 0.25})
	}
	ops := make([][]Update, transient)
	for i := range ops {
		in, out := edges[i], edges[(i+transient-live)%transient]
		for k := range in {
			gone := out[k]
			gone.Delta = -1e300
			ops[i] = append(ops[i], in[k], gone)
		}
	}
	op := func(i int) {
		for _, u := range ops[i%transient] {
			_, after := g.Apply(u)
			sinkWeight += after
		}
	}
	for i := 0; i < transient; i++ {
		op(i) // one lap: the live window fills and the pool settles
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	if n := g.NumVertices(); n > residents+2*live {
		b.Fatalf("%d vertices in the graph; the window holds about %d", n, residents+live)
	}
}
