package stream

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dyndens/internal/graph"
)

// This file is the aggregation half of crash recovery (internal/persist).
// Snapshots are cut only at drained batch boundaries — every queued update of
// the last ingested document handed out and processed — so the persisted
// state is exactly the weight table, the cumulative scale, and the epoch
// clock. Because the aggregator is deterministic ("equal document streams
// produce equal update streams"), replaying the logged documents through a
// restored aggregator regenerates the exact update stream the crashed
// process would have produced.

// ErrStopped is the sentinel a replay boundary hook returns to stop the run
// cleanly between batches: RunBatches returns it with the pipeline
// drained, which is how signal-aware CLI drivers cut a final checkpoint and
// print stats instead of dying mid-update.
var ErrStopped = errors.New("stream: replay stopped at boundary")

// ValidateThresholdScale checks that scale is a cumulative decay scale a
// well-formed rescaled stream can carry: finite and in (0, 1]. The replay
// drivers call it before handing threshold units to an engine, so corrupt
// replayed data surfaces as a returned error at the stream seam instead of a
// panic inside the engine (whose own check guards a caller invariant).
func ValidateThresholdScale(scale float64) error {
	if math.IsNaN(scale) || scale <= 0 || scale > 1 {
		return fmt.Errorf("stream: threshold batch scale %v outside (0, 1]", scale)
	}
	return nil
}

// Drained reports whether the aggregator has handed out every queued update
// of the last ingested document — the only state an Aggregator snapshot can
// be cut at (mid-buffer positions are not persisted; the recovering process
// re-derives them by replaying the document).
func (g *Aggregator) Drained() bool {
	return g.pendingThreshold == nil && len(g.docUpdates) == 0
}

// AggregatorPair is one persisted weight-table entry (a < b; normalized
// weight).
type AggregatorPair struct {
	A, B graph.Vertex
	W    float64
}

// RetireEntryState is one persisted lazy-retirement heap entry.
type RetireEntryState struct {
	A, B      graph.Vertex
	ExpLambda float64
}

// AggregatorState is the persisted fading state of an Aggregator. Pairs are
// sorted by canonical pair key. Retire holds one entry per tracked pair and
// must be a max-heap on ExpLambda; an export lists them in descending expiry
// scale, ties by pair key. Which entries an epoch tick pops depends on the
// expiry scales alone, so a restored aggregator retires exactly like the
// crashed one whatever valid heap layout it was given.
type AggregatorState struct {
	Started  bool
	Epoch    int64
	LastTime int64
	Lambda   float64
	Pairs    []AggregatorPair
	Retire   []RetireEntryState
}

// ExportState captures the aggregator's fading state. It fails unless the
// aggregator is Drained — the only boundary recovery can resume from.
func (g *Aggregator) ExportState() (AggregatorState, error) {
	if !g.Drained() {
		return AggregatorState{}, fmt.Errorf("stream: aggregator export requires a drained batch boundary")
	}
	st := AggregatorState{
		Started:  g.started,
		Epoch:    g.epoch,
		LastTime: g.lastTime,
		Lambda:   g.lambda,
	}
	keys := g.weights.appendKeys(nil)
	slices.Sort(keys)
	st.Pairs = make([]AggregatorPair, len(keys))
	for i, k := range keys {
		w, _ := g.weights.get(k)
		a, b := k.vertices()
		st.Pairs[i] = AggregatorPair{A: a, B: b, W: w}
	}
	entries := g.retire.entries()
	st.Retire = make([]RetireEntryState, len(entries))
	for i, e := range entries {
		a, b := e.key.vertices()
		st.Retire[i] = RetireEntryState{A: a, B: b, ExpLambda: e.expLambda}
	}
	return st, nil
}

// NewAggregatorFromState builds an aggregator over docs resuming from an
// exported state: the weight table, lazy retirement heap, cumulative scale,
// and epoch clock all come back exactly. docs must be the remainder of the
// original document stream (persist chains WAL-replayed documents with the
// skipped-ahead live source). Validation errors are returned, not panicked:
// the state may come from a damaged snapshot.
func NewAggregatorFromState(docs DocumentSource, cfg AggregatorConfig, st AggregatorState) (*Aggregator, error) {
	g, err := NewAggregator(docs, cfg)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(st.Lambda) || st.Lambda <= 0 || st.Lambda > 1 {
		return nil, fmt.Errorf("stream: restored scale %v outside (0, 1]", st.Lambda)
	}
	g.started = st.Started
	g.epoch = st.Epoch
	g.lastTime = st.LastTime
	g.lambda = st.Lambda
	for _, p := range st.Pairs {
		if p.A >= p.B {
			return nil, fmt.Errorf("stream: restored pair (%d, %d) not in canonical order", p.A, p.B)
		}
		if math.IsNaN(p.W) || math.IsInf(p.W, 0) || p.W <= 0 {
			return nil, fmt.Errorf("stream: restored pair (%d, %d) has invalid weight %v", p.A, p.B, p.W)
		}
		k := makePairKey(p.A, p.B)
		if _, tracked := g.weights.get(k); tracked {
			return nil, fmt.Errorf("stream: restored pair (%d, %d) duplicated", p.A, p.B)
		}
		g.weights.put(k, p.W)
	}
	// Every restored entry goes to the heap, whose layout the list already
	// is. It must be what the aggregator keeps: a max-heap of finite expiry
	// scales (out of order, it retires late), one entry per tracked pair
	// while pruning is on, and none for an untracked pair.
	g.retire.heap = make([]retireEntry, len(st.Retire))
	queued := make(map[pairKey]bool, len(st.Retire))
	for i, e := range st.Retire {
		k := makePairKey(e.A, e.B)
		switch _, tracked := g.weights.get(k); {
		case math.IsNaN(e.ExpLambda) || math.IsInf(e.ExpLambda, 0) || e.ExpLambda < 0:
			return nil, fmt.Errorf("stream: restored retire entry (%d, %d) has invalid expiry scale %v", e.A, e.B, e.ExpLambda)
		case i > 0 && st.Retire[(i-1)/2].ExpLambda < e.ExpLambda:
			return nil, fmt.Errorf("stream: restored retire heap out of order at entry %d", i)
		case !tracked || queued[k]:
			return nil, fmt.Errorf("stream: restored retire entry (%d, %d) names no tracked pair, or one already queued", e.A, e.B)
		}
		queued[k] = true
		g.retire.heap[i] = retireEntry{key: k, expLambda: e.ExpLambda}
	}
	if g.cfg.PruneBelow > 0 && len(queued) != g.weights.len() {
		return nil, fmt.Errorf("stream: restored retire heap queues %d of %d tracked pairs", len(queued), g.weights.len())
	}
	return g, nil
}
