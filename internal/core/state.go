package core

import (
	"fmt"
	"math"
	"slices"

	"dyndens/internal/graph"
	"dyndens/internal/vset"
)

// This file is the engine half of crash recovery (internal/persist): a
// deterministic export of everything Process has built — the dense-subgraph
// index and the rescaled-decay scale — and an import that rebuilds a fresh
// engine to the exact same state. The graph travels separately (graph.State)
// because sharded deployments replicate one graph across K workers and the
// snapshot stores it once.
//
// Error-handling contract (the panic-vs-error distinction the recovery work
// formalises): constructors and importers that consume persisted or replayed
// data return errors — a corrupt snapshot or WAL frame must surface to the
// recoverer, not crash the process. Panics remain only for invariant
// violations that indicate a programming bug (e.g. a threshold batch scale
// the validated stream layers can never produce), and for the Must*
// convenience wrappers, which exist for tests and examples with known-good
// configurations.

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

// ImportState rebuilds a freshly constructed engine (same Config as the
// exported one) to the exported state: graph content, dense index with
// ImplicitTooDense families, and the rescaled-decay threshold position.
// It validates everything it consumes and returns an error rather than
// panicking — the state may come from a damaged snapshot.
func (e *Engine) ImportState(gs graph.State, st EngineState) error {
	if e.stats != (Stats{}) || e.ix.NodeCount() != 0 {
		return fmt.Errorf("core: ImportState requires a fresh engine")
	}
	if math.IsNaN(st.Scale) || st.Scale <= 0 || st.Scale > 1 {
		return fmt.Errorf("core: restored decay scale %v outside (0, 1]", st.Scale)
	}
	e.g = graph.NewFromState(gs)
	if st.Scale != 1 {
		// Same move ProcessThresholdBatch performs, minus the incremental
		// index walk: the restored index already reflects the normalized
		// threshold baseT/λ.
		newT := e.baseT / st.Scale
		if err := e.th.Rescale(e.th, newT); err != nil {
			return fmt.Errorf("core: restored scale %v yields invalid threshold %v: %w", st.Scale, newT, err)
		}
		e.cfg.T = newT
		e.cfg.DeltaIt = e.th.DeltaIt
	}
	e.emitScale = st.Scale
	for _, de := range st.Dense {
		if n := de.Set.Len(); n < 2 || n > e.th.Nmax {
			return fmt.Errorf("core: restored dense entry %v has cardinality %d outside [2, %d]", de.Set, n, e.th.Nmax)
		}
		if math.IsNaN(de.Score) || math.IsInf(de.Score, 0) {
			return fmt.Errorf("core: restored dense entry %v has non-finite score %v", de.Set, de.Score)
		}
		node := e.ix.InsertDense(de.Set.Clone(), de.Score)
		if de.Star {
			star := e.ix.InsertStar(node)
			e.ix.SetScore(star, de.StarScore)
		}
	}
	if n := e.ix.NodeCount(); n > e.stats.MaxIndexNodes {
		e.stats.MaxIndexNodes = n
	}
	return nil
}
