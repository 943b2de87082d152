package core

import "dyndens/internal/vset"

// BatchPairs returns the number of coalesced positive pairs that ran the
// discovery pass.
func (s Stats) BatchPairs() uint64 { return s.batchPairs }

// Dense returns every explicitly indexed dense subgraph (density ≥ T_{|C|}),
// sorted by decreasing density.
func (e *Engine) Dense() []Subgraph {
	nodes := e.denseSnapshot()
	out := make([]Subgraph, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, Subgraph{
			Set:     n.Set(),
			Density: e.th.Density(n.Score(), n.Card()) * e.emitScale,
		})
	}
	sortSubgraphs(out)
	return out
}

// ImplicitFamilyCount returns the number of ImplicitTooDense families.
func (e *Engine) ImplicitFamilyCount() int { return e.ix.StarCount() }

// StarInsertions returns the number of ImplicitTooDense families created.
func (s Stats) StarInsertions() uint64 { return s.starInsertions }

// DenseCount returns the number of explicitly indexed dense subgraphs.
func (e *Engine) DenseCount() int { return e.ix.Len() }

// Contains reports whether the given vertex set is currently maintained as an
// explicitly indexed dense subgraph.
func (e *Engine) Contains(c vset.Set) bool { return e.ix.HasDense(c) }
