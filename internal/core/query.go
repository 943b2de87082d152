package core

import (
	"fmt"
	"iter"
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

// ImplicitFamilies returns the ImplicitTooDense families as (base, score)
// pairs, in lexicographic base order: a family (C, ∗) stands for every C ∪ Y
// with Y a non-empty set of vertices that have no edge into C or between each
// other, all at C's score (see brute.OutputDenseExpanded). Scores are in the
// engine's internal normalised units, those of Thresholds. The engine must
// not change while the sequence is ranged over. The engine never expands a
// family itself: it keeps no vertex universe to expand one against.
func (e *Engine) ImplicitFamilies() iter.Seq2[vset.Set, float64] {
	return func(yield func(vset.Set, float64) bool) {
		for _, n := range e.ix.AppendDense(nil) {
			if star := e.ix.StarOf(n); star != nil && !yield(n.Set(), star.Score()) {
				return
			}
		}
	}
}

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
// vertex y outside an indexed C whose C∪{y} is not explicitly indexed may put
// more weight into C than C's reach (+Inf allows anything), to within
// scoreSlack. Only the neighbours of C's members put weight into C; every
// other vertex puts 0, which a reach covers as long as it is not negative, so
// a negative reach is reported as such. It returns "" when all hold. It is a
// pass over the neighbourhoods of every indexed subgraph: for tests, and
// deliberately not part of ValidateIndex.
func (e *Engine) ValidateCertificates() string {
	for _, n := range e.denseSnapshot() {
		c, reach := n.Set(), n.Reach()
		if reach < 0 {
			return fmt.Sprintf("reach %v of %v is below the 0 that a vertex with no edge into it puts into it", reach, c)
		}
		for _, u := range c {
			ys, _ := e.g.Neighborhood(u)
			for _, y := range ys {
				if c.Contains(y) || e.ix.HasDense(c.Add(y)) {
					continue
				}
				if add := e.g.ScoreWith(c, y); add > reach+scoreSlack(add) {
					return fmt.Sprintf("reach %v of %v is below the %v that %d puts into it", reach, c, add, y)
				}
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
