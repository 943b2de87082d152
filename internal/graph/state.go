package graph

// State is an order-canonical deep copy of a Graph for persistence: the known
// vertex universe plus every non-zero edge as parallel (u, v, w) triples with
// u < v, sorted by (u, v). Equal graphs export equal States regardless of the
// insertion history, so snapshot bytes are deterministic.
type State struct {
	Known []Vertex
	EdgeU []Vertex
	EdgeV []Vertex
	EdgeW []float64
}

// ExportState captures the graph's full content.
func (g *Graph) ExportState() State {
	st := State{Known: g.KnownVertices()}
	g.Edges(func(u, v Vertex, w float64) {
		st.EdgeU = append(st.EdgeU, u)
		st.EdgeV = append(st.EdgeV, v)
		st.EdgeW = append(st.EdgeW, w)
	})
	return st
}

// MarkKnown adds v to the known-vertex universe without touching any edge.
// Restoration needs it for vertices whose edges have all decayed to zero:
// they carry no adjacency vector but still count toward the universe.
func (g *Graph) MarkKnown(v Vertex) { g.known[v] = true }

// NewFromState rebuilds a graph from an exported State. Adjacency vectors
// come back in the same sorted order ExportState emitted, so the rebuilt
// graph is structurally identical to the exported one (edge weights exact;
// the total-weight gauge may differ in the last bits from summation order).
func NewFromState(st State) *Graph {
	g := New()
	for i, u := range st.EdgeU {
		g.SetWeight(u, st.EdgeV[i], st.EdgeW[i])
	}
	for _, v := range st.Known {
		g.MarkKnown(v)
	}
	return g
}
