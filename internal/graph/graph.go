// Package graph implements the evolving weighted entity graph that DynDens
// maintains dense subgraphs over.
//
// The paper models the domain as a complete weighted graph over a fixed set
// of N vertices whose edge weights change over time; edges with weight zero
// are simply absent from the adjacency lists. The graph index required by
// DynDens (Section 3.2.1) stores each neighbourhood Γ_u as a *sorted vector*
// — here a pair of parallel slices ([]Vertex, []float64) kept in increasing
// vertex order — so that Score/ScoreWith are binary-search probes of a few
// vectors and point updates insert/delete in place (amortised O(degree) worst
// case, O(log degree) when the edge already exists, which is the steady state
// of a weight-update stream). The vectors are found through a vertex table
// (vset.Table), one probe per vertex whatever its ID, and Apply searches the
// first endpoint's vector once, writing the new weight where it found the
// old. Edges runs in ascending (u, v) order, so the heavy-edge buckets it
// fills, and every scan of them, follow from the update history alone.
//
// The graph keeps no vertex universe: a vertex is in it exactly while it has
// an edge, and leaves it, with its vector, when its last edge goes. The
// paper's fixed vertex set matters only to the supergraphs C∪{y} of a
// too-dense C, which the engine keeps as one symbolic family (C, ∗); expanding
// a family against a universe is the test oracle's job (baseline/brute), with
// the universe its caller supplies. So the graph's memory follows its live
// edges, not the length of the stream.
//
// # Recycled vectors
//
// Vertices come and go with their edges: a fading stream retires every pair
// of a background entity and brings the entity back a few documents later.
// The graph therefore keeps the vectors it frees in a pool of its own,
// bucketed by capacity class (class k holds capacity 2^k up to 2^(k+1)). A
// vector that empties goes back to its class, and so do the old arrays of a
// vector that grows or shrinks; a vertex gaining its first edge takes a
// class-0 vector, a full vector grows into one of the next class, and a
// vector that an edge's removal leaves at a quarter of its class moves into
// the class of half its size, the pool's vector first. Every vector thus
// reaches its capacity through the classes its own degree passes, so a leaf
// never inherits a hub's vector and a hub that cools gives its capacity
// back, while the 4× gap between growing (full) and shrinking (a quarter
// full) keeps a degree swinging across one boundary from moving at all. A
// vertex that leaves and comes back with no higher degree costs no
// allocation. Each class holds at most 64
// vectors, and from class 7 up only as many as make 4096 entries of nominal
// capacity (one at least), so the pool's memory is bounded whatever the
// churn; a vector freed into a full class is left to the collector.
//
// # Bounded discovery scans
//
// Every discovery scan the engine runs knows, before it starts, how much
// score a candidate must contribute to matter (its deficit), and both scans
// take that bound so their cost follows the candidates that can reach it
// rather than the size of the graph:
//
//   - NeighborhoodScores(c, need, buf) returns the outside vertices y with
//     Γ_C·ê_y ≥ need. By pigeonhole such a y has an edge of weight ≥ need/|C|
//     into C, so each member's weight vector is scanned linearly for heavy
//     entries and only the survivors are summed.
//   - EdgesNotIncident(c, minW, fn) enumerates the edges of weight ≥ minW with
//     no endpoint in c from the heavy-edge index: edges bucketed by the binary
//     exponent of their weight, maintained at the single choke point store,
//     an edge moving only when its weight crosses a power of two.
//
// The heavy-edge index holds only the edges at or above a floor that follows
// demand. It starts empty (floor +Inf), so a graph that is never asked a
// bounded edge question pays nothing, and a request below the floor lowers it
// with one full pass — what every such scan used to cost. Every |E|/4
// mutations a sweep checks that the index still earns its memory: if no
// bounded scan ran in that period it is dropped, and if it has come to hold
// more than a quarter of the edges its floor rises to the lowest bound the
// period saw. Both happen under rescaled decay, where normalised weights
// inflate by up to 150 orders of magnitude between two folds (Ldexp, which
// shifts the buckets with the weights) and carry every new edge past any fixed
// floor: a pipeline that stops asking bounded questions gets its memory back
// within two periods, and one that scans all the time keeps an index of the
// edges its current thresholds can use.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dyndens/internal/vset"
)

// Vertex identifies a node of the graph.
type Vertex = vset.Vertex

// Update is a single streaming edge-weight update (a, b, δ): at some time
// instant the weight of edge {a, b} changes from w to w+δ.
type Update struct {
	A, B  Vertex
	Delta float64
}

// adjacency is one neighbourhood vector Γ_u: neighbours in strictly
// increasing vertex order with the parallel edge weights.
type adjacency struct {
	vs []Vertex
	ws []float64
}

// find returns the position of v in the vector and whether it is present;
// absent vertices report their insertion point, 0 in a nil vector. vset.Search
// is the shared sorted-[]Vertex lower-bound primitive (linear scan on small
// slices, branch-free halving search above).
func (l *adjacency) find(v Vertex) (int, bool) {
	if l == nil {
		return 0, false
	}
	i := vset.Search(l.vs, v)
	return i, i < len(l.vs) && l.vs[i] == v
}

// weight returns the edge weight to v (0 when absent).
func (l *adjacency) weight(v Vertex) float64 {
	if i, ok := l.find(v); ok {
		return l.ws[i]
	}
	return 0
}

// class returns the vector's capacity class: the k with 2^k ≤ capacity < 2^(k+1).
func (l *adjacency) class() int {
	return bits.Len(uint(min(cap(l.vs), cap(l.ws)))) - 1
}

// insert places (v, w) at position i, shifting the tail in place; the caller
// has made room (Graph.insert).
func (l *adjacency) insert(i int, v Vertex, w float64) {
	l.vs = append(l.vs, 0)
	l.ws = append(l.ws, 0)
	copy(l.vs[i+1:], l.vs[i:])
	copy(l.ws[i+1:], l.ws[i:])
	l.vs[i] = v
	l.ws[i] = w
}

// remove deletes position i, shifting the tail.
func (l *adjacency) remove(i int) {
	copy(l.vs[i:], l.vs[i+1:])
	copy(l.ws[i:], l.ws[i+1:])
	l.vs = l.vs[:len(l.vs)-1]
	l.ws = l.ws[:len(l.ws)-1]
}

// sumOver returns Σ w(v) over the vertices of c present in the vector,
// skipping skip. c is sorted (it is a vset.Set), so for tiny c each element
// is binary-searched independently.
func (l *adjacency) sumOver(c []Vertex, skip Vertex) float64 {
	if l == nil {
		return 0
	}
	var s float64
	for _, v := range c {
		if v == skip {
			continue
		}
		if i, ok := l.find(v); ok {
			s += l.ws[i]
		}
	}
	return s
}

// Graph is a weighted undirected graph with streaming edge-weight updates.
// The zero value is not usable; call New.
//
// Graph is not safe for concurrent mutation; DynDens processes its update
// stream sequentially (as in the paper). Concurrent readers are safe as long
// as no Apply call is in flight.
type Graph struct {
	// adj is the vertex table of neighbourhood vectors: a vertex has one
	// exactly while it has an edge, and the graph keeps nothing else per
	// vertex, so a vertex leaves it with its last edge.
	adj vset.Table[*adjacency]
	// pool holds the free neighbourhood vectors (see the package comment):
	// pool[k] the empty ones of capacity class k, at most poolLimit(k) of them.
	pool [][]*adjacency
	// edgeCount tracks the number of edges with non-zero weight.
	edgeCount int
	// totalWeight tracks the sum of all positive edge weights (diagnostic).
	totalWeight float64

	// The heavy-edge index (heavy.go): the buckets, each indexed edge's
	// position in its bucket, the exponent of the floor (heavyOff while the
	// index is empty), and the lowest exponent requested and the mutations
	// counted since the last sweep.
	heavy      []heavyBucket
	heavyPos   map[uint64]int32
	heavyFloor int
	heavyAsked int
	heavyTicks int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		heavyFloor: heavyOff,
		heavyAsked: heavyOff,
	}
}

// Weight returns the current weight of edge {a, b}; absent edges have weight 0.
func (g *Graph) Weight(a, b Vertex) float64 {
	if a == b {
		return 0
	}
	return g.adj.Get(a).weight(b)
}

// NumEdges returns the number of edges with non-zero weight.
func (g *Graph) NumEdges() int { return g.edgeCount }

// NumVertices returns the number of vertices that currently have at least one
// incident edge: the only vertices the graph keeps (see the package comment).
func (g *Graph) NumVertices() int { return g.adj.Len() }

// Apply applies the edge-weight update (a, b, δ) and returns the previous and
// new weight of the edge. Edges whose weight becomes ≤ 0 are removed (weights
// are association strengths, which are non-negative for all measures used in
// the paper); the new weight reported is then 0. The edge is looked up once:
// the position found in a's vector is where the new weight is written.
func (g *Graph) Apply(u Update) (before, after float64) {
	a, b := u.A, u.B
	if a == b {
		return 0, 0
	}
	la := g.adj.Get(a)
	i, ok := la.find(b)
	if ok {
		before = la.ws[i]
	}
	after = before + u.Delta
	if after <= 0 {
		after = 0
	}
	g.store(a, b, la, i, ok, after)
	return before, after
}

// SetWeight sets the weight of edge {a, b} to w (w ≤ 0 removes the edge).
func (g *Graph) SetWeight(a, b Vertex, w float64) {
	if a == b {
		return
	}
	if w < 0 {
		w = 0
	}
	la := g.adj.Get(a)
	i, ok := la.find(b)
	g.store(a, b, la, i, ok, w)
}

// store writes weight w (0 removes the edge) into both endpoints' vectors,
// given a's vector la (nil if a has none) and the position i of b in it,
// present or not, as find reports them. It is the one place an edge weight
// changes, and so the one place the heavy-edge index is kept up, once a
// bounded scan has switched it on.
func (g *Graph) store(a, b Vertex, la *adjacency, i int, ok bool, w float64) {
	var old float64
	if ok {
		old = la.ws[i]
	} else if w == 0 {
		return // the edge is absent already
	}
	lb := g.adj.Get(b)
	switch {
	case w == 0:
		la.remove(i)
		j, _ := lb.find(a)
		lb.remove(j)
		g.fit(a, la)
		g.fit(b, lb)
		g.edgeCount--
		g.totalWeight -= old
	case ok:
		la.ws[i] = w
		j, _ := lb.find(a)
		lb.ws[j] = w
		g.totalWeight += w - old
	default:
		if la == nil {
			la = g.vector(0)
			g.adj.Set(a, la)
		}
		if lb == nil {
			lb = g.vector(0)
			g.adj.Set(b, lb)
		}
		g.insert(la, i, b, w)
		j, _ := lb.find(a)
		g.insert(lb, j, a, w)
		g.edgeCount++
		g.totalWeight += w
	}
	if g.heavyFloor != heavyOff && old != w {
		g.heavyUpdate(a, b, old, w)
	}
}

// poolLimit bounds capacity class k of the vector pool: 64 vectors, and from
// class 7 up 4096 entries of nominal capacity, one vector at least.
func poolLimit(k int) int { return max(1, min(64, 4096>>k)) }

// vector returns an empty vector of capacity class k: the pool's, or a new one
// of capacity exactly 2^k.
func (g *Graph) vector(k int) *adjacency {
	if k < len(g.pool) {
		if n := len(g.pool[k]); n > 0 {
			l := g.pool[k][n-1]
			g.pool[k][n-1] = nil
			g.pool[k] = g.pool[k][:n-1]
			return l
		}
	}
	return &adjacency{vs: make([]Vertex, 0, 1<<k), ws: make([]float64, 0, 1<<k)}
}

// poolHasRoom reports whether class k of the pool takes another vector.
func (g *Graph) poolHasRoom(k int) bool {
	return k >= len(g.pool) || len(g.pool[k]) < poolLimit(k)
}

// release returns an emptied vector to the pool, or drops it if its class is
// full.
func (g *Graph) release(l *adjacency) {
	k := l.class()
	if !g.poolHasRoom(k) {
		return
	}
	for len(g.pool) <= k {
		g.pool = append(g.pool, nil)
	}
	l.vs, l.ws = l.vs[:0], l.ws[:0]
	g.pool[k] = append(g.pool[k], l)
}

// insert places (v, w) at position i of l. A full vector first moves into one
// of the next capacity class.
func (g *Graph) insert(l *adjacency, i int, v Vertex, w float64) {
	if len(l.vs) == cap(l.vs) || len(l.ws) == cap(l.ws) {
		g.move(l, l.class()+1)
	}
	l.insert(i, v, w)
}

// fit keeps u's vector l sized to its degree after a removal: an empty
// vector leaves the graph for the pool, and one that has fallen to a quarter
// of its capacity class moves into the class of half its size.
func (g *Graph) fit(u Vertex, l *adjacency) {
	switch k := l.class(); {
	case len(l.vs) == 0:
		g.adj.Set(u, nil)
		g.release(l)
	case k > 0 && 4*len(l.vs) <= 1<<k:
		g.move(l, k-1)
	}
}

// move carries l's entries into a vector of capacity class k, the pool's if
// it has one, and gives l's old arrays to the pool in turn.
func (g *Graph) move(l *adjacency, k int) {
	pooled := k < len(g.pool) && len(g.pool[k]) > 0
	if !pooled && !g.poolHasRoom(l.class()) {
		// Nothing to take and no room for what would be given back: a plain
		// reallocation, without a spare vector to carry the old one.
		l.vs = append(make([]Vertex, 0, 1<<k), l.vs...)
		l.ws = append(make([]float64, 0, 1<<k), l.ws...)
		return
	}
	nl := g.vector(k)
	nl.vs = append(nl.vs, l.vs...)
	nl.ws = append(nl.ws, l.ws...)
	l.vs, l.ws, nl.vs, nl.ws = nl.vs, nl.ws, l.vs, l.ws
	g.release(nl)
}

// Neighborhood returns the sorted neighbourhood vector Γ_u: u's neighbours in
// increasing vertex order with the parallel edge weights. The returned slices
// are the graph's own storage — callers must treat them as read-only and must
// not hold them across mutations. This is the zero-copy accessor the paper's
// Section 3.2.1 graph index exists to provide.
func (g *Graph) Neighborhood(u Vertex) ([]Vertex, []float64) {
	if l := g.adj.Get(u); l != nil {
		return l.vs, l.ws
	}
	return nil, nil
}

// Score returns score(C) = Σ_{i,j ∈ C, i<j} w_ij, the total internal edge
// weight of the subgraph induced by C. Each member's vector is probed for the
// members after it; |C| ≤ Nmax is tiny, so this is O(|C|² log degree) with no
// allocation.
func (g *Graph) Score(c vset.Set) float64 {
	var s float64
	for i := 0; i+1 < len(c); i++ {
		s += g.adj.Get(c[i]).sumOver(c[i+1:], c[i])
	}
	return s
}

// ScoreWith returns score(C ∪ {u}) - score(C) = Γ_u · c, the total weight of
// edges between u and the vertices of C. If u ∈ C the result is the weight of
// edges from u to the rest of C.
func (g *Graph) ScoreWith(c vset.Set, u Vertex) float64 {
	return g.adj.Get(u).sumOver(c, u)
}

// NeighborhoodBuf is the reusable scratch a NeighborhoodScores call works in
// and returns its result in. The zero value is ready to use; after a first
// call its buffers are retained, so steady-state reuse performs no
// allocations. It is owned by one caller at a time (the engine keeps a free
// list of them so that recursive explorations each work in their own buffer).
type NeighborhoodBuf struct {
	vs []Vertex
	ws []float64
	// Reach bounds the weight into C of every outside vertex the last scan did
	// not return; it is below that scan's need whenever the need is positive.
	Reach float64
}

// NeighborhoodScores returns every vertex y ∉ C with Γ_C · ê_y = Σ_{v∈C} w_vy
// ≥ need, and that value — the quantity DynDens needs when exploring C:
// score(C ∪ {y}) = score(C) + Γ_C·ê_y (Section 3.2.1, footnote 6), need being
// what C still lacks to a dense C ∪ {y}. need ≤ 0 asks for every vertex
// adjacent to C. The result vectors are sorted by vertex and remain valid
// until buf's next use; they alias buf, not the graph.
//
// A qualifying y has, by pigeonhole, an edge of weight ≥ need/|C| into C, so
// the members' weight vectors are scanned linearly for such entries and only
// those candidates are summed, each over the members in increasing order.
// The same split bounds everything left out, which buf.Reach reports: a vertex
// with no heavy entry sums to at most |C| times the largest light entry seen,
// and a candidate that fell short of need was summed exactly. Nothing is
// allocated once buf is warm.
func (g *Graph) NeighborhoodScores(c vset.Set, need float64, buf *NeighborhoodBuf) ([]Vertex, []float64) {
	// The factor covers the rounding of the sum and of the division.
	heavy := need / float64(len(c)) * (1 - 1e-9)
	cand := buf.vs[:0]
	light := 0.0
	for _, v := range c {
		if l := g.adj.Get(v); l != nil {
			for i, w := range l.ws {
				if w >= heavy {
					if !c.Contains(l.vs[i]) {
						cand = append(cand, l.vs[i])
					}
				} else if w > light && !c.Contains(l.vs[i]) {
					light = w
				}
			}
		}
	}
	slices.Sort(cand)
	reach := float64(len(c)) * light
	vs, ws := cand[:0], buf.ws[:0]
	for i, y := range cand {
		if i > 0 && y == cand[i-1] {
			continue
		}
		if sum := g.adj.Get(y).sumOver(c, y); sum >= need {
			vs = append(vs, y) // in place: at most i entries precede cand[i]
			ws = append(ws, sum)
		} else if sum > reach {
			reach = sum
		}
	}
	buf.vs, buf.ws, buf.Reach = cand, ws, reach
	return vs, ws
}

// EdgesNotIncident calls fn for every edge {u, v} (u < v) of weight ≥ minW
// such that neither endpoint belongs to C; minW ≤ 0 asks for every such edge.
// DynDens needs this where an implicitly represented too-dense supergraph
// C ∪ {*} must itself be explored (Section 3.2.3): the base is augmented with
// whole edges heavy enough to close its deficit, which is minW. A positive
// bound is answered from the heavy-edge index (see the package comment),
// lowering its floor first if the bound is below it. fn may call
// EdgesNotIncident again but must not mutate the graph.
func (g *Graph) EdgesNotIncident(c vset.Set, minW float64, fn func(u, v Vertex, w float64)) {
	if minW <= 0 {
		g.Edges(func(u, v Vertex, w float64) {
			if !c.Contains(u) && !c.Contains(v) {
				fn(u, v, w)
			}
		})
		return
	}
	exp := heavyExp(minW)
	g.heavyAsked = min(g.heavyAsked, exp)
	if exp < g.heavyFloor {
		g.lowerHeavyFloor(exp)
	}
	// A nested call may append buckets to g.heavy, all of them below exp.
	for bi := 0; bi < len(g.heavy); bi++ {
		if g.heavy[bi].exp < exp {
			continue
		}
		for i := 0; i < len(g.heavy[bi].edges); i++ {
			if e := g.heavy[bi].edges[i]; e.w >= minW && !c.Contains(e.u) && !c.Contains(e.v) {
				fn(e.u, e.v, e.w)
			}
		}
	}
}

// Edges calls fn for every edge {u, v} with u < v and non-zero weight, in
// ascending (u, v) order.
func (g *Graph) Edges(fn func(u, v Vertex, w float64)) {
	for u, l := range g.adj.All() {
		start, _ := l.find(u) // u is not its own neighbour: the first v > u
		for i := start; i < len(l.vs); i++ {
			fn(u, l.vs[i], l.ws[i])
		}
	}
}

// Ldexp multiplies every edge weight by 2^k, the relabel that folds a decay
// scale into normalized weights: exact for normal weights. One taken lower
// rounds as math.Ldexp does for every holder of it; at 0 it leaves the graph.
func (g *Graph) Ldexp(k int) {
	var emptied []Vertex
	removed := 0 // twice the edges removed: each sits in two vectors
	for u, l := range g.adj.All() {
		n := 0
		for i, w := range l.ws {
			if w = math.Ldexp(w, k); w != 0 {
				l.vs[n], l.ws[n] = l.vs[i], w
				n++
			}
		}
		removed += len(l.vs) - n
		if l.vs, l.ws = l.vs[:n], l.ws[:n]; n == 0 {
			emptied = append(emptied, u)
		}
	}
	for _, u := range emptied {
		g.release(g.adj.Get(u))
		g.adj.Set(u, nil)
	}
	g.edgeCount -= removed / 2
	g.totalWeight = math.Ldexp(g.totalWeight, k)
	g.heavyLdexp(k)
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{vertices=%d edges=%d weight=%.3f}", g.NumVertices(), g.NumEdges(), g.totalWeight)
}
