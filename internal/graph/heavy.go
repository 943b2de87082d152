package graph

import "math"

// The heavy-edge index: every edge whose weight is at or above the floor, in
// buckets by the binary exponent of the weight. See the package comment for
// the floor's policy; everything here is reached from store (upkeep) or
// EdgesNotIncident (lookup and floor lowering).

// heavyOff is the floor of an empty index: above every weight's exponent.
const heavyOff = 2048

// heavyEdge is one indexed edge, u < v, with its current weight, so that a
// scan reads the buckets and nothing else.
type heavyEdge struct {
	u, v Vertex
	w    float64
}

// heavyBucket holds the indexed edges whose weight has biased binary exponent
// exp, i.e. lies in [2^(exp-1023), 2^(exp-1022)), in no particular order:
// Graph.heavyPos records where each edge sits, and an edge leaves by having
// the bucket's last edge moved into its place.
type heavyBucket struct {
	exp   int
	edges []heavyEdge
}

// heavyKey packs the edge {u, v}, u < v, into one word.
func heavyKey(u, v Vertex) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// heavyExp returns the biased binary exponent of a positive weight (0 for
// denormals, up to 2047) and -1 for an absent edge. It is monotone in w, so
// an edge of exponent above that of a bound is above the bound and one below
// is below.
func heavyExp(w float64) int {
	if w <= 0 {
		return -1
	}
	return int(math.Float64bits(w) >> 52)
}

// heavyBucketOf returns the bucket of exponent exp, appending it if need be.
// Appending (rather than keeping the buckets sorted) leaves an enumeration in
// progress valid when a nested scan lowers the floor under it. The pointer is
// good until the next call.
func (g *Graph) heavyBucketOf(exp int) *heavyBucket {
	for i := range g.heavy {
		if g.heavy[i].exp == exp {
			return &g.heavy[i]
		}
	}
	g.heavy = append(g.heavy, heavyBucket{exp: exp})
	return &g.heavy[len(g.heavy)-1]
}

// heavyAdd indexes edge {u, v}, u < v, of weight w and exponent exp.
func (g *Graph) heavyAdd(u, v Vertex, w float64, exp int) {
	if g.heavyPos == nil {
		g.heavyPos = make(map[uint64]int32)
	}
	b := g.heavyBucketOf(exp)
	g.heavyPos[heavyKey(u, v)] = int32(len(b.edges))
	b.edges = append(b.edges, heavyEdge{u, v, w})
}

// heavyUpdate records that edge {u, v} changed weight from old to w (0 =
// absent, on either side): the edge changes bucket only when its weight
// crosses a power of two. It also counts the mutation toward the next sweep.
func (g *Graph) heavyUpdate(u, v Vertex, old, w float64) {
	if u > v {
		u, v = v, u
	}
	from, to := heavyExp(old), heavyExp(w)
	if from >= g.heavyFloor {
		key := heavyKey(u, v)
		b, pos := g.heavyBucketOf(from), g.heavyPos[key]
		if from == to {
			b.edges[pos].w = w
		} else {
			last := len(b.edges) - 1
			moved := b.edges[last]
			b.edges[pos] = moved
			g.heavyPos[heavyKey(moved.u, moved.v)] = pos
			b.edges = b.edges[:last]
			delete(g.heavyPos, key)
		}
	}
	if to != from && to >= g.heavyFloor {
		g.heavyAdd(u, v, w, to)
	}
	if g.heavyTicks++; g.heavyTicks > g.edgeCount/4+64 {
		g.heavySweep()
	}
}

// heavySweep runs every |E|/4 mutations and stops the index from costing more
// than it saves. An index no bounded scan consulted since the previous sweep
// is dropped. One that has come to hold over a quarter of the edges no longer
// selects much: its floor rises to the lowest bound requested since the
// previous sweep. Either way a later request below the floor pays one full
// pass to lower it, which the period amortises to a few edge visits per
// mutation. Buckets that stand empty go too (between sweeps they stay: the
// heaviest ones empty and refill all the time).
func (g *Graph) heavySweep() {
	g.heavyTicks = 0
	asked := g.heavyAsked
	g.heavyAsked = heavyOff
	if asked == heavyOff {
		g.heavy, g.heavyPos, g.heavyFloor = nil, nil, heavyOff
		return
	}
	raise := asked > g.heavyFloor && len(g.heavyPos) > g.edgeCount/4
	if raise {
		g.heavyFloor = asked
	}
	keep := g.heavy[:0]
	for _, b := range g.heavy {
		if b.exp >= g.heavyFloor && len(b.edges) > 0 {
			keep = append(keep, b)
		}
	}
	clear(g.heavy[len(keep):])
	g.heavy = keep
	if raise {
		// Rebuilt rather than pruned: a map never gives back the room the
		// larger index needed.
		g.heavyPos = make(map[uint64]int32)
		for _, b := range keep {
			for i, e := range b.edges {
				g.heavyPos[heavyKey(e.u, e.v)] = int32(i)
			}
		}
	}
}

// heavyLdexp shifts the index with weights all just multiplied by 2^k: every
// exponent moves by k while the floor stays normal; otherwise the index goes,
// and the next bounded scan rebuilds it.
func (g *Graph) heavyLdexp(k int) {
	if g.heavyFloor == heavyOff || g.heavyFloor+k < 1 {
		g.heavy, g.heavyPos, g.heavyFloor, g.heavyAsked = nil, nil, heavyOff, heavyOff
		return
	}
	g.heavyFloor += k
	if g.heavyAsked != heavyOff {
		g.heavyAsked = max(0, g.heavyAsked+k)
	}
	for i := range g.heavy {
		g.heavy[i].exp += k
		for j := range g.heavy[i].edges {
			g.heavy[i].edges[j].w = math.Ldexp(g.heavy[i].edges[j].w, k)
		}
	}
}

// lowerHeavyFloor extends the index down to exponent exp with one pass over
// the graph. Every bucket it fills is new: the existing ones are all at or
// above the old floor.
func (g *Graph) lowerHeavyFloor(exp int) {
	old := g.heavyFloor
	g.heavyFloor = exp
	g.Edges(func(u, v Vertex, w float64) {
		if x := heavyExp(w); x >= exp && x < old {
			g.heavyAdd(u, v, w, x)
		}
	})
}
