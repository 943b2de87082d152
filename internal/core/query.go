package core

import (
	"fmt"
	"math"
	"sort"

	"dyndens/internal/index"
	"dyndens/internal/vset"
)

// denseSnapshot returns every explicitly indexed dense node, in lexicographic
// set order, in the engine's whole-index snapshot buffer: valid until the
// next update, threshold change or query.
func (e *Engine) denseSnapshot() []*index.Node {
	e.denseBuf = e.ix.AppendDense(e.denseBuf[:0])
	return e.denseBuf
}

// OutputDense returns the explicitly indexed subgraphs whose density is at
// least the output threshold T, sorted by decreasing density (ties broken by
// vertex set). This matches the accounting used in the paper's evaluation,
// which excludes subgraphs that are only implicitly represented through
// ImplicitTooDense families.
func (e *Engine) OutputDense() []Subgraph {
	var out []Subgraph
	for _, n := range e.denseSnapshot() {
		card := n.Card()
		if e.th.IsOutputDense(n.Score(), card) {
			out = append(out, Subgraph{
				Set:     n.Set(),
				Score:   n.Score() * e.emitScale,
				Density: e.th.Density(n.Score(), card) * e.emitScale,
			})
		}
	}
	sortSubgraphs(out)
	return out
}

// OutputDenseKeys returns the canonical set keys (vset.Set.Key) of the
// explicitly indexed output-dense subgraphs, sorted lexicographically. It is
// the cheap comparison form used by oracle cross-validation tests and by
// consumers that maintain the result set incrementally from sink events.
func (e *Engine) OutputDenseKeys() []string {
	var keys []string
	for _, n := range e.denseSnapshot() {
		if e.th.IsOutputDense(n.Score(), n.Card()) {
			keys = append(keys, n.Set().Key())
		}
	}
	sort.Strings(keys)
	return keys
}

// OutputDenseCount returns the number of explicitly indexed output-dense
// subgraphs without materialising them.
func (e *Engine) OutputDenseCount() int {
	count := 0
	for _, n := range e.denseSnapshot() {
		if e.th.IsOutputDense(n.Score(), n.Card()) {
			count++
		}
	}
	return count
}

// Dense returns every explicitly indexed dense subgraph (density ≥ T_{|C|}),
// sorted by decreasing density.
func (e *Engine) Dense() []Subgraph {
	nodes := e.denseSnapshot()
	out := make([]Subgraph, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, Subgraph{
			Set:     n.Set(),
			Score:   n.Score() * e.emitScale,
			Density: e.th.Density(n.Score(), n.Card()) * e.emitScale,
		})
	}
	sortSubgraphs(out)
	return out
}

// DenseCount returns the number of explicitly indexed dense subgraphs.
func (e *Engine) DenseCount() int { return e.ix.Len() }

// ImplicitFamilyCount returns the number of ImplicitTooDense families.
func (e *Engine) ImplicitFamilyCount() int { return e.ix.StarCount() }

// OutputDenseExpanded returns the output-dense subgraphs including the
// members of ImplicitTooDense families, de-duplicated against explicit
// entries. It is intended for ground-truth comparisons and small graphs; the
// expansion enumerates every mutually-disconnected extension of each family
// base, which is exponential in the number of disconnected vertices.
//
// A family with base C and score s stands for C ∪ Y for every non-empty set Y
// of vertices that are disconnected from C and from each other: adding such Y
// leaves the score at s, so C ∪ Y is dense exactly while s clears the larger
// cardinality's threshold (extensions with internal edges change the score
// and are indexed explicitly — that is what starEdgeScan and processStar
// guarantee).
func (e *Engine) OutputDenseExpanded() []Subgraph {
	seen := make(map[string]bool)
	var out []Subgraph
	add := func(s Subgraph) {
		k := s.Set.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, s)
	}
	for _, s := range e.OutputDense() {
		add(s)
	}
	vertices := e.g.KnownVertices()
	for _, star := range e.ix.AppendStarNodes(nil) {
		base := star.Set()
		score := star.Score()
		// Candidates disconnected from the base, in ascending order so each
		// extension set is enumerated once.
		var disc []vset.Vertex
		for _, y := range vertices {
			if base.Contains(y) || e.g.ScoreWith(base, y) > 0 {
				continue
			}
			disc = append(disc, y)
		}
		var added []vset.Vertex // the extension set Y built so far
		var rec func(cur vset.Set, start int)
		rec = func(cur vset.Set, start int) {
			if cur.Len() >= e.th.Nmax {
				return
			}
			for i := start; i < len(disc); i++ {
				y := disc[i]
				mutual := true
				for _, v := range added {
					if e.g.Weight(v, y) != 0 {
						mutual = false
						break
					}
				}
				if !mutual {
					continue
				}
				ext := cur.Add(y)
				if e.th.IsOutputDense(score, ext.Len()) {
					add(Subgraph{
						Set:     ext,
						Score:   score * e.emitScale,
						Density: e.th.Density(score, ext.Len()) * e.emitScale,
					})
				}
				added = append(added, y)
				rec(ext, i+1)
				added = added[:len(added)-1]
			}
		}
		rec(base, 0)
	}
	sortSubgraphs(out)
	return out
}

// Contains reports whether the given vertex set is currently maintained as an
// explicitly indexed dense subgraph.
func (e *Engine) Contains(c vset.Set) bool { return e.ix.HasDense(c) }

// ValidateIndex checks the internal consistency of the dense-subgraph index
// and, additionally, that every stored score matches the graph to within
// scoreSlack — relative to the score, because under rescaled decay scores are
// in normalised units that grow as λ shrinks. It returns "" when consistent;
// it is intended for tests and debugging.
func (e *Engine) ValidateIndex() string {
	if msg := e.ix.Validate(); msg != "" {
		return msg
	}
	for _, n := range e.denseSnapshot() {
		c := n.Set()
		if got, want := n.Score(), e.g.Score(c); math.Abs(got-want) > scoreSlack(math.Max(math.Abs(got), math.Abs(want))) {
			return "stored score drift for " + c.String()
		}
		if !e.th.IsDense(n.Score(), c.Len()) {
			return "indexed subgraph is not dense: " + c.String()
		}
	}
	return ""
}

// ValidateCertificates checks every reach certificate against the graph: no
// known vertex y outside an indexed C whose C∪{y} is not explicitly indexed
// may put more weight into C than C's reach (+Inf allows anything), to within
// scoreSlack. It returns "" when all hold. It is a pass over the vertex
// universe per indexed subgraph: for tests on small graphs, and deliberately
// not part of ValidateIndex.
func (e *Engine) ValidateCertificates() string {
	vertices := e.g.KnownVertices()
	for _, n := range e.denseSnapshot() {
		c := n.Set()
		for _, y := range vertices {
			if c.Contains(y) || e.ix.HasDense(c.Add(y)) {
				continue
			}
			if add := e.g.ScoreWith(c, y); add > n.Reach()+scoreSlack(add) {
				return fmt.Sprintf("reach %v of %v is below the %v that %d puts into it", n.Reach(), c, add, y)
			}
		}
	}
	return ""
}

func sortSubgraphs(s []Subgraph) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Density != s[j].Density {
			return s[i].Density > s[j].Density
		}
		if s[i].Set.Len() != s[j].Set.Len() {
			return s[i].Set.Len() < s[j].Set.Len()
		}
		return vset.CompareKeys(s[i].Set, s[j].Set) < 0
	})
}
