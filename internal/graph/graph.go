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
//     exponent of their weight, maintained at the single choke point
//     setWeight, an edge moving only when its weight crosses a power of two.
//
// The heavy-edge index holds only the edges at or above a floor that follows
// demand. It starts empty (floor +Inf), so a graph that is never asked a
// bounded edge question pays nothing, and a request below the floor lowers it
// with one full pass — what every such scan used to cost. Every |E|/4
// mutations a sweep checks that the index still earns its memory: if no
// bounded scan ran in that period it is dropped, and if it has come to hold
// more than a quarter of the edges its floor rises to the lowest bound the
// period saw. Both happen under rescaled decay, where normalised weights inflate
// without limit and carry every new edge past any fixed floor: a pipeline
// whose only bounded scan is the pair pass of a renormalisation gets its
// memory back within two periods, and one that scans all the time keeps an
// index of the edges its current thresholds can use.
package graph

import (
	"fmt"
	"slices"
	"sort"

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

// insert places (v, w) at position i, shifting the tail (amortised in-place).
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
	// exactly while it has an edge.
	adj vset.Table[*adjacency]
	// known remembers every vertex that ever carried an edge. The paper's
	// vertex universe is fixed; a vertex whose last edge decays away can
	// still belong to dense subgraphs (supergraphs of too-dense subgraphs
	// absorb disconnected vertices), so the universe must not shrink.
	known map[Vertex]bool
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
		known:      make(map[Vertex]bool),
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

// HasEdge reports whether edge {a, b} currently has non-zero weight.
func (g *Graph) HasEdge(a, b Vertex) bool {
	_, ok := g.adj.Get(a).find(b)
	return ok
}

// Degree returns the number of neighbours of u with non-zero edge weight.
func (g *Graph) Degree(u Vertex) int {
	if l := g.adj.Get(u); l != nil {
		return len(l.vs)
	}
	return 0
}

// NumEdges returns the number of edges with non-zero weight.
func (g *Graph) NumEdges() int { return g.edgeCount }

// NumVertices returns the number of vertices that currently have at least one
// incident edge. (The paper's vertex set is fixed; vertices with no incident
// edges never participate in dense subgraphs, so tracking them is unnecessary.)
func (g *Graph) NumVertices() int { return g.adj.Len() }

// TotalWeight returns the sum of all edge weights (a diagnostic quantity used
// by workload generators and tests).
func (g *Graph) TotalWeight() float64 { return g.totalWeight }

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
		if len(la.vs) == 0 {
			g.adj.Set(a, nil)
		}
		if len(lb.vs) == 0 {
			g.adj.Set(b, nil)
		}
		g.edgeCount--
		g.totalWeight -= old
	case ok:
		la.ws[i] = w
		j, _ := lb.find(a)
		lb.ws[j] = w
		g.totalWeight += w - old
	default:
		// A vertex only ever (re)enters adj through vector creation, so
		// marking it known here keeps the universe bookkeeping off the hot
		// path.
		if la == nil {
			la = &adjacency{}
			g.adj.Set(a, la)
			g.known[a] = true
		}
		if lb == nil {
			lb = &adjacency{}
			g.adj.Set(b, lb)
			g.known[b] = true
		}
		la.insert(i, b, w)
		j, _ := lb.find(a)
		lb.insert(j, a, w)
		g.edgeCount++
		g.totalWeight += w
	}
	if g.heavyFloor != heavyOff && old != w {
		g.heavyUpdate(a, b, old, w)
	}
}

// Neighbors calls fn for every neighbour of u with non-zero edge weight, in
// increasing vertex order.
func (g *Graph) Neighbors(u Vertex, fn func(v Vertex, w float64)) {
	if l := g.adj.Get(u); l != nil {
		for i, v := range l.vs {
			fn(v, l.ws[i])
		}
	}
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

// NeighborsSorted returns a copy of the neighbourhood vector of u. Use
// Neighborhood in hot paths to avoid the allocation.
func (g *Graph) NeighborsSorted(u Vertex) ([]Vertex, []float64) {
	l := g.adj.Get(u)
	if l == nil {
		return nil, nil
	}
	vs := make([]Vertex, len(l.vs))
	ws := make([]float64, len(l.ws))
	copy(vs, l.vs)
	copy(ws, l.ws)
	return vs, ws
}

// KnownVertices returns the fixed vertex universe: every vertex that has ever
// carried an edge, sorted, including vertices whose edges have since decayed
// to zero. Ground-truth enumerations and ImplicitTooDense expansions must use
// this universe — a too-dense subgraph's supergraphs include ones formed with
// currently isolated vertices.
func (g *Graph) KnownVertices() []Vertex {
	vs := make([]Vertex, 0, len(g.known))
	for v := range g.known {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
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

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New()
	for u, l := range g.adj.All() {
		out.adj.Set(u, &adjacency{vs: slices.Clone(l.vs), ws: slices.Clone(l.ws)})
	}
	for v := range g.known {
		out.known[v] = true
	}
	out.edgeCount = g.edgeCount
	out.totalWeight = g.totalWeight
	return out
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{vertices=%d edges=%d weight=%.3f}", g.NumVertices(), g.NumEdges(), g.totalWeight)
}

// AverageDegree returns the mean number of neighbours over vertices with at
// least one incident edge (0 for the empty graph). The complexity analysis of
// Section 4.2 is parameterised by this quantity.
func (g *Graph) AverageDegree() float64 {
	if g.adj.Len() == 0 {
		return 0
	}
	return 2 * float64(g.edgeCount) / float64(g.adj.Len())
}
