package graph

import (
	"fmt"
	"math"
)

// State is an order-canonical deep copy of a Graph for persistence: every
// non-zero edge as parallel (u, v, w) triples with u < v, sorted by (u, v).
// The edges are the whole graph (it keeps no vertex without one). Equal
// graphs export equal States regardless of the insertion history, so
// snapshot bytes are deterministic.
type State struct {
	EdgeU []Vertex
	EdgeV []Vertex
	EdgeW []float64
}

// ExportState captures the graph's full content.
func (g *Graph) ExportState() State {
	var st State
	g.Edges(func(u, v Vertex, w float64) {
		st.EdgeU = append(st.EdgeU, u)
		st.EdgeV = append(st.EdgeV, v)
		st.EdgeW = append(st.EdgeW, w)
	})
	return st
}

// NewFromState rebuilds a graph from an exported State. It refuses a state
// ExportState cannot have produced — edge slices of unequal length, an edge
// with u ≥ v or out of (u, v) order, a weight that is not finite and
// positive — since a state may come from damaged storage. Adjacency vectors
// come back in the same sorted order ExportState emitted, so the rebuilt
// graph is structurally identical to the exported one (edge weights exact;
// the total-weight gauge may differ in the last bits from summation order).
func NewFromState(st State) (*Graph, error) {
	if len(st.EdgeV) != len(st.EdgeU) || len(st.EdgeW) != len(st.EdgeU) {
		return nil, fmt.Errorf("graph: state has %d, %d and %d edge endpoints and weights", len(st.EdgeU), len(st.EdgeV), len(st.EdgeW))
	}
	g := New()
	for i, u := range st.EdgeU {
		v, w := st.EdgeV[i], st.EdgeW[i]
		if u >= v || i > 0 && (u < st.EdgeU[i-1] || u == st.EdgeU[i-1] && v <= st.EdgeV[i-1]) || !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("graph: state edge %d (%d, %d) of weight %v is out of order or not finite and positive", i, u, v, w)
		}
		g.SetWeight(u, v, w)
	}
	return g, nil
}
