package graph

import "testing"

// ring returns a graph whose vertices 0..n-1 form a cycle of unit edges: a
// backdrop that keeps its own vectors while other vertices come and go.
func ring(n int) *Graph {
	g := New()
	for v := 0; v < n; v++ {
		g.Apply(Update{A: Vertex(v), B: Vertex((v + 1) % n), Delta: 1})
	}
	return g
}

// TestReturningVertexAllocatesNothing: a vertex that loses its last edge
// hands its vector to the pool, and when it comes back with no higher degree
// — the same one, or a lower one — the vectors it regrows through come from
// the pool again. So does its neighbours' upkeep, whose degrees move within
// the capacity they already have.
func TestReturningVertexAllocatesNothing(t *testing.T) {
	g := ring(10)
	const v = Vertex(100)
	visit := func(degree int) func() {
		return func() {
			for i := 0; i < degree; i++ {
				g.Apply(Update{A: v, B: Vertex(2 * i), Delta: 0.5})
			}
			for i := 0; i < degree; i++ {
				g.Apply(Update{A: Vertex(2 * i), B: v, Delta: -1})
			}
		}
	}
	visit(5)() // the vectors a degree-5 vertex grows through, once
	for _, degree := range []int{5, 3, 1} {
		if allocs := testing.AllocsPerRun(100, visit(degree)); allocs != 0 {
			t.Errorf("a vertex coming back at degree %d costs %v allocs/run, want 0", degree, allocs)
		}
	}
	if degreeOf(g, v) != 0 || g.NumVertices() != 10 || g.NumEdges() != 10 {
		t.Fatalf("the visits left %v, want the ring alone", g)
	}
}

// TestLeafDoesNotInheritHubVector: a vertex gaining its first edge takes a
// vector of the smallest class, whatever larger vectors the pool holds, so a
// hub's departure does not hand its capacity to the next leaf.
func TestLeafDoesNotInheritHubVector(t *testing.T) {
	g := New()
	const hub = Vertex(-1)
	for v := Vertex(0); v < 300; v++ {
		g.Apply(Update{A: hub, B: v, Delta: 1})
		g.Apply(Update{A: v, B: v + 1000, Delta: 1}) // keeps v in the graph
	}
	for v := Vertex(0); v < 300; v++ {
		g.SetWeight(hub, v, 0)
	}
	if degreeOf(g, hub) != 0 {
		t.Fatal("the hub did not leave")
	}
	g.Apply(Update{A: 5000, B: 5001, Delta: 1})
	for _, v := range []Vertex{5000, 5001} {
		if l := g.adj.Get(v); cap(l.vs) != 1 || cap(l.ws) != 1 {
			t.Fatalf("leaf %d took a vector of capacity %d/%d, want 1", v, cap(l.vs), cap(l.ws))
		}
	}
}

// TestPoolBoundedAfterMassDeparture: thousands of vertices of every degree
// leave at once — leaves, mid-degree vertices and hubs — and the pool keeps
// no more than its bound in each class, whatever the departure freed.
func TestPoolBoundedAfterMassDeparture(t *testing.T) {
	g := New()
	var edges []Update
	add := func(a, b Vertex) {
		u := Update{A: a, B: b, Delta: 1}
		g.Apply(u)
		edges = append(edges, u)
	}
	for v := Vertex(0); v < 5000; v++ {
		add(v, 100000+v%8) // leaves on eight hubs of degree 625
	}
	for v := Vertex(0); v < 400; v++ {
		for i := Vertex(1); i <= 20; i++ { // mid-degree vertices
			add(200000+v, 300000+(v*20+i)%2000)
		}
	}
	for _, u := range edges {
		g.SetWeight(u.A, u.B, 0)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("the departure left %v", g)
	}
	pooled, entries, bound := 0, 0, 0
	for k, class := range g.pool {
		if len(class) > poolLimit(k) {
			t.Errorf("class %d holds %d vectors, bound %d", k, len(class), poolLimit(k))
		}
		bound += poolLimit(k) * (2<<k - 1) // a class-k capacity is below 2^(k+1)
		for _, l := range class {
			if l.class() != k || len(l.vs) != 0 || len(l.ws) != 0 {
				t.Fatalf("class %d holds a vector of capacity %d/%d and length %d", k, cap(l.vs), cap(l.ws), len(l.vs))
			}
			entries += cap(l.vs)
		}
		pooled += len(class)
	}
	if pooled == 0 {
		t.Fatal("the departure pooled nothing")
	}
	if entries > bound {
		t.Errorf("the pool holds %d entries in %d vectors, bound %d", entries, pooled, bound)
	}
	t.Logf("%d vectors, %d entries pooled after %d vertices left", pooled, entries, 5000+8+400+2000)
}

// TestCooledHubReturnsCapacity: a vertex that grows to degree 1000 and then
// cools to degree 3 gives its capacity back on the way down, one class per
// halving of its degree, and the vectors that frees stay within the pool's
// bound in every class.
func TestCooledHubReturnsCapacity(t *testing.T) {
	g := New()
	const hub = Vertex(-1)
	for v := Vertex(0); v < 1000; v++ {
		g.Apply(Update{A: hub, B: v, Delta: 1})
	}
	if l := g.adj.Get(hub); cap(l.vs) < 1000 {
		t.Fatalf("degree 1000 in a vector of capacity %d", cap(l.vs))
	}
	for v := Vertex(3); v < 1000; v++ {
		g.SetWeight(hub, v, 0)
	}
	if degreeOf(g, hub) != 3 {
		t.Fatalf("degree %d, want 3", degreeOf(g, hub))
	}
	if l := g.adj.Get(hub); cap(l.vs) > 16 || cap(l.ws) > 16 {
		t.Errorf("a vertex cooled to degree 3 keeps capacity %d/%d, want ≤ 16", cap(l.vs), cap(l.ws))
	}
	for k, class := range g.pool {
		if len(class) > poolLimit(k) {
			t.Errorf("class %d holds %d vectors, bound %d", k, len(class), poolLimit(k))
		}
	}
}

// TestDegreeOscillationAllocatesNothing: a vertex whose degree swings across
// a class boundary, and back far enough to move down a class again, takes
// every vector it moves into from the pool once the first swing has filled
// it, so a steady stream of such swings allocates nothing.
func TestDegreeOscillationAllocatesNothing(t *testing.T) {
	g := ring(40)
	const v = Vertex(100)
	for i := 0; i < 4; i++ {
		g.Apply(Update{A: v, B: Vertex(i), Delta: 1})
	}
	swing := func() {
		for i := 4; i < 9; i++ { // degree 4 → 9: class 2 → 3 → 4
			g.Apply(Update{A: v, B: Vertex(i), Delta: 1})
		}
		for i := 4; i < 9; i++ { // and back to 4: class 4 → 3
			g.Apply(Update{A: v, B: Vertex(i), Delta: -1})
		}
	}
	swing()
	if allocs := testing.AllocsPerRun(100, swing); allocs != 0 {
		t.Errorf("a degree swinging 4 ↔ 9 costs %v allocs/run, want 0", allocs)
	}
	if l := g.adj.Get(v); degreeOf(g, v) != 4 || cap(l.vs) != 8 {
		t.Fatalf("the swings left degree %d in capacity %d, want 4 in 8", degreeOf(g, v), cap(l.vs))
	}
}
