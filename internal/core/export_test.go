package core

import "dyndens/internal/vset"

// DenseCount returns the number of explicitly indexed dense subgraphs.
func (e *Engine) DenseCount() int { return e.ix.Len() }

// Contains reports whether the given vertex set is currently maintained as an
// explicitly indexed dense subgraph.
func (e *Engine) Contains(c vset.Set) bool { return e.ix.HasDense(c) }
