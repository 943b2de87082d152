// Package brute provides offline, exhaustive solutions to the Engagement
// problem. They serve two purposes in this repository: as ground truth for
// correctness tests of the incremental DynDens engine, and as the "full
// recomputation" comparison points of the paper's evaluation (Section 5.2 and
// Section 6.2).
//
// Two enumeration strategies are provided:
//
//   - EnumerateAll examines every vertex subset of cardinality 2..Nmax. It is
//     exponential in the number of vertices and intended only for small test
//     graphs, but it is the most trustworthy oracle because it makes no
//     structural assumptions (it finds dense subgraphs containing vertices
//     disconnected from the rest of the subgraph, which arise around
//     too-dense subgraphs).
//   - EnumerateConnected grows connected subgraphs only, which matches the
//     subgraphs DynDens represents explicitly and scales to the graphs used
//     in benchmarks.
package brute

import (
	"sort"

	"dyndens/internal/density"
	"dyndens/internal/graph"
	"dyndens/internal/vset"
)

// Result is a dense (or output-dense) subgraph found by an offline
// enumeration.
type Result struct {
	Set     vset.Set
	Score   float64
	Density float64
}

// Params configures an offline enumeration.
type Params struct {
	Measure density.Measure
	T       float64 // report subgraphs with density ≥ T
	Nmax    int     // maximum cardinality
}

// EnumerateAll returns every vertex subset C with 2 ≤ |C| ≤ Nmax and
// dens(C) ≥ T, considering all subsets of the graph's fixed vertex universe
// (every vertex that ever carried an edge — a currently isolated vertex still
// participates in supergraphs of too-dense subgraphs). Cost is O(C(V, Nmax));
// use only on small graphs.
func EnumerateAll(g *graph.Graph, p Params) []Result {
	vertices := g.KnownVertices()
	var out []Result
	var rec func(start int, cur vset.Set, score float64)
	rec = func(start int, cur vset.Set, score float64) {
		n := cur.Len()
		if n >= 2 && density.Density(p.Measure, score, n) >= p.T-1e-12*p.T {
			out = append(out, Result{Set: cur.Clone(), Score: score, Density: density.Density(p.Measure, score, n)})
		}
		if n == p.Nmax {
			return
		}
		for i := start; i < len(vertices); i++ {
			v := vertices[i]
			rec(i+1, append(cur, v), score+g.ScoreWith(cur, v))
		}
	}
	rec(0, nil, 0)
	sortResults(out)
	return out
}

// EnumerateConnected returns every connected vertex subset C with
// 2 ≤ |C| ≤ Nmax and dens(C) ≥ T. Subgraphs containing vertices with no edge
// into the rest of the subgraph are excluded (they only arise as supergraphs
// of too-dense subgraphs and are the subgraphs DynDens represents
// implicitly).
func EnumerateConnected(g *graph.Graph, p Params) []Result {
	seen := make(map[string]bool)
	var out []Result
	consider := func(c vset.Set, score float64) {
		k := c.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		n := c.Len()
		if d := density.Density(p.Measure, score, n); d >= p.T-1e-12*p.T {
			out = append(out, Result{Set: c.Clone(), Score: score, Density: d})
		}
	}
	visited := make(map[string]bool)
	var grow func(c vset.Set, score float64)
	grow = func(c vset.Set, score float64) {
		k := c.Key()
		if visited[k] {
			return
		}
		visited[k] = true
		consider(c, score)
		if c.Len() == p.Nmax {
			return
		}
		// Offline enumeration recurses while iterating the scan result, so
		// each frame needs its own buffer (the engine solves this with a free
		// list; here a per-frame allocation is fine).
		var buf graph.NeighborhoodBuf
		ys, adds := g.NeighborhoodScores(c, 0, &buf)
		for i, y := range ys {
			grow(c.Add(y), score+adds[i])
		}
	}
	g.Edges(func(u, v graph.Vertex, w float64) {
		grow(vset.New(u, v), w)
	})
	sortResults(out)
	return out
}

// TopK returns the k densest connected subgraphs with cardinality in
// [2, Nmax], regardless of any threshold. It implements the offline Top-k
// variant of Engagement discussed in Section 4.2.2 by exhaustive connected
// enumeration (tractable at the scales used here).
func TopK(g *graph.Graph, m density.Measure, nmax, k int) []Result {
	all := EnumerateConnected(g, Params{Measure: m, T: 0, Nmax: nmax})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Keys returns the canonical set keys of the results, sorted; convenient for
// comparing against other enumerations in tests.
func Keys(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Set.Key()
	}
	sort.Strings(out)
	return out
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Density != rs[j].Density {
			return rs[i].Density > rs[j].Density
		}
		if rs[i].Set.Len() != rs[j].Set.Len() {
			return rs[i].Set.Len() < rs[j].Set.Len()
		}
		return rs[i].Set.Key() < rs[j].Set.Key()
	})
}
