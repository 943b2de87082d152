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
//
// # The vertex universe
//
// The paper's graph is complete over a fixed vertex set V, and a vertex with
// no edge still turns a too-dense C into a dense C∪{y}. The graph keeps only
// the vertices that have an edge, and the engine reports the supergraphs of a
// too-dense C as one symbolic family (C, ∗), so V is the caller's to give:
// Params.Universe, which EnumerateAll and OutputDenseExpanded (the family
// expansion the engine no longer does) both range over. UniverseOf gives the
// vertices a stream of updates has brought into the graph.
package brute

import (
	"iter"
	"maps"
	"slices"
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
	// Universe is the vertex set V (see the package comment) beyond the
	// vertices that have an edge, which are always in it. Only EnumerateAll
	// and OutputDenseExpanded read it.
	Universe []graph.Vertex
}

// universe returns, sorted, p.Universe together with every vertex that has an
// edge in g.
func universe(g *graph.Graph, p Params) []graph.Vertex {
	vs := slices.Clone(p.Universe)
	g.Edges(func(u, v graph.Vertex, _ float64) { vs = append(vs, u, v) })
	slices.Sort(vs)
	return slices.Compact(vs)
}

// UniverseOf returns, sorted, the endpoints of every update with A ≠ B and a
// positive delta: the vertices the updates bring into a graph they are
// applied to one at a time, which is the universe an oracle check after them
// should range over. (A batch that nets a pair's deltas to nothing brings
// fewer; the universe is then larger than needed, which is still correct.)
func UniverseOf(updates []graph.Update) []graph.Vertex {
	var vs []graph.Vertex
	for _, u := range updates {
		if u.A != u.B && u.Delta > 0 {
			vs = append(vs, u.A, u.B)
		}
	}
	slices.Sort(vs)
	return slices.Compact(vs)
}

// EnumerateAll returns every vertex subset C with 2 ≤ |C| ≤ Nmax and
// dens(C) ≥ T, considering all subsets of the universe: p.Universe and every
// vertex of g with an edge (a vertex without one still participates in
// supergraphs of too-dense subgraphs). Cost is O(C(V, Nmax)); use only on
// small graphs.
func EnumerateAll(g *graph.Graph, p Params) []Result {
	vertices := universe(g, p)
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

// Engine is what OutputDenseExpanded reads of a DynDens engine: its graph and
// threshold schedule, both in the engine's internal units, the keys of its
// explicitly indexed output-dense subgraphs, and its ImplicitTooDense families
// as (base, score) pairs. *core.Engine implements it (this package cannot
// import core, whose tests import it).
type Engine interface {
	Graph() *graph.Graph
	Thresholds() *density.Thresholds
	OutputDenseKeys() []string
	ImplicitFamilies() iter.Seq2[vset.Set, float64]
}

// OutputDenseExpanded returns the canonical keys, sorted, of every subgraph
// the engine holds output-dense: the explicitly indexed ones and the members
// of its ImplicitTooDense families, expanded against the universe EnumerateAll
// ranges over (p.Universe and every vertex with an edge). Of p it reads only
// the universe: members are classified by the engine's own threshold
// schedule, in its units and with its tolerance. It is for ground-truth
// comparisons on small graphs; the expansion enumerates every
// mutually-disconnected extension of each family base, which is exponential
// in the number of disconnected vertices.
//
// A family with base C and score s stands for C ∪ Y for every non-empty set Y
// of vertices that are disconnected from C and from each other: adding such Y
// leaves the score at s, so C ∪ Y is dense exactly while s clears the larger
// cardinality's threshold (extensions with internal edges change the score
// and the engine indexes them explicitly).
func OutputDenseExpanded(e Engine, p Params) []string {
	g, th := e.Graph(), e.Thresholds()
	vertices := universe(g, p)
	seen := make(map[string]bool)
	for _, k := range e.OutputDenseKeys() {
		seen[k] = true
	}
	for base, score := range e.ImplicitFamilies() {
		// Candidates disconnected from the base, in ascending order so each
		// extension set is enumerated once.
		var disc []vset.Vertex
		for _, y := range vertices {
			if !base.Contains(y) && g.ScoreWith(base, y) == 0 {
				disc = append(disc, y)
			}
		}
		var added []vset.Vertex // the extension set Y built so far
		var rec func(cur vset.Set, start int)
		rec = func(cur vset.Set, start int) {
			if cur.Len() >= th.Nmax {
				return
			}
			for i := start; i < len(disc); i++ {
				y := disc[i]
				if slices.ContainsFunc(added, func(v vset.Vertex) bool { return g.Weight(v, y) != 0 }) {
					continue
				}
				ext := cur.Add(y)
				if th.IsOutputDense(score, ext.Len()) {
					seen[ext.Key()] = true
				}
				added = append(added, y)
				rec(ext, i+1)
				added = added[:len(added)-1]
			}
		}
		rec(base, 0)
	}
	return slices.Sorted(maps.Keys(seen))
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
