package core

import (
	"fmt"
	"math"
	"slices"

	"dyndens/internal/graph"
	"dyndens/internal/index"
	"dyndens/internal/vset"
)

// This file is the engine half of crash recovery (internal/persist): a
// deterministic export of the dense-subgraph index and the decay scale, and
// an import that rebuilds a fresh engine to the exact same state. The graph
// travels separately (graph.State); a snapshot holds one engine's graph and
// index, and internal/persist refuses a sharded one. Importers of persisted
// data return errors — a corrupt snapshot must surface to the recoverer, not
// crash the process; panics are left to caller bugs and the Must* wrappers.

// DenseEntry is the persisted form of one explicitly indexed dense subgraph.
// Scores are in the engine's internal normalized units (real score =
// Score·Scale). Star records whether the subgraph carries an
// ImplicitTooDense family; StarScore is that family's score, which tracks
// the base score but is stored separately because the index maintains it as
// its own node.
type DenseEntry struct {
	Set       vset.Set
	Score     float64
	Star      bool
	StarScore float64
}

// EngineState is the persisted index + decay state of one engine. Entries
// are sorted by canonical set key, so equal engines export equal states.
type EngineState struct {
	// Scale is the cumulative decay scale λ (Engine.DecayScale): 1 unless the
	// engine runs under rescaled decay.
	Scale float64
	Dense []DenseEntry
}

// ExportState captures the engine's index and decay scale. The engine must
// be between updates (not mid-Process), which is the only state a replay
// driver ever snapshots at.
func (e *Engine) ExportState() EngineState {
	st := EngineState{Scale: e.emitScale}
	for _, n := range e.denseSnapshot() {
		de := DenseEntry{Set: n.Set(), Score: n.Score()}
		if star := e.ix.StarOf(n); star != nil {
			de.Star = true
			de.StarScore = star.Score()
		}
		st.Dense = append(st.Dense, de)
	}
	slices.SortFunc(st.Dense, func(x, y DenseEntry) int { return vset.CompareKeys(x.Set, y.Set) })
	return st
}

// ImportState rebuilds a freshly constructed engine, built from the Config
// the exported one was built from, to the exported state: graph content,
// dense index with ImplicitTooDense families, and the rescaled-decay
// threshold position — the schedule a threshold unit of the same scale would
// have put it on. It validates everything it consumes and returns an error
// rather than panicking — the state may come from a damaged snapshot.
func (e *Engine) ImportState(gs graph.State, st EngineState) error {
	if e.stats != (Stats{}) || e.ix.NodeCount() != 0 {
		return fmt.Errorf("core: ImportState requires a fresh engine")
	}
	if math.IsNaN(st.Scale) || st.Scale <= 0 || st.Scale > 1 {
		return fmt.Errorf("core: restored decay scale %v outside (0, 1]", st.Scale)
	}
	g, err := graph.NewFromState(gs)
	if err != nil {
		return fmt.Errorf("core: restored %w", err)
	}
	e.g = g
	if err := e.base.Normalize(e.th, st.Scale); err != nil {
		return fmt.Errorf("core: restored scale %v yields invalid threshold %v: %w", st.Scale, e.base.T/st.Scale, err)
	}
	e.emitScale = st.Scale
	for i, de := range st.Dense {
		fault := e.entryFault(de)
		if fault == "" && i > 0 && vset.CompareKeys(st.Dense[i-1].Set, de.Set) >= 0 {
			fault = "out of order"
		}
		if fault != "" {
			return fmt.Errorf("core: restored dense entry %v at score %v: %s", de.Set, de.Score, fault)
		}
		node := e.ix.InsertDense(de.Set.Clone(), de.Score)
		if de.Star {
			star := e.ix.InsertStar(node)
			e.ix.SetScore(star, de.StarScore)
		}
	}
	if msg := e.ValidateIndex(); msg != "" {
		return fmt.Errorf("core: restored index: %s", msg)
	}
	e.noteIndexSize()
	return nil
}

// entryFault names what makes de an entry the engine cannot have exported
// under its schedule, or returns "".
func (e *Engine) entryFault(de DenseEntry) string {
	n := de.Set.Len()
	for i := 1; i < n; i++ {
		if de.Set[i-1] >= de.Set[i] || de.Set[i] == index.Star {
			return "not a strictly increasing vertex set"
		}
	}
	switch {
	case n < 2 || n > e.th.Nmax:
		return "cardinality outside [2, Nmax]"
	case math.IsInf(de.Score, 0) || !e.th.IsDense(de.Score, n):
		return "not finite and dense"
	case de.Star && (!e.th.IsTooDense(de.Score, n) || de.StarScore != de.Score):
		return "a family on a base that is not too-dense, or at another score"
	}
	return ""
}
