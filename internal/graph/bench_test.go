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
	if g.Degree(hub) != degree {
		b.Fatalf("hub degree %d, want %d", g.Degree(hub), degree)
	}
}
