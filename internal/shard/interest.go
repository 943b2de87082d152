package shard

import (
	"fmt"

	"dyndens/internal/core"
	"dyndens/internal/graph"
	"dyndens/internal/index"
)

// Overlap selects the delivery policy of a sharded deployment: which workers
// fully process each update, beyond applying its weight change to their graph
// replicas (every replica always applies the full stream — worst-case
// exploration reach is global, so correctness needs exact boundary context).
type Overlap int

const (
	// OverlapScoped (the default) delivers each update for full processing
	// only to the workers that can act on it: the designated seeder, the
	// workers whose interest maps currently subscribe to an endpoint, and —
	// for positive deltas — workers holding an ImplicitTooDense family the
	// edge could extend (core.Engine.StarNeedsPositive). Every other worker
	// takes the cheap ApplyOnly path. Output is bit-identical to OverlapMirror.
	OverlapScoped Overlap = iota
	// OverlapMirror delivers every update to every worker for full
	// processing — the PR-2 broadcast policy, kept as the conformance
	// reference and as the pessimal-delivery baseline for benchmarks.
	OverlapMirror
)

// String implements fmt.Stringer.
func (o Overlap) String() string {
	switch o {
	case OverlapScoped:
		return "scoped"
	case OverlapMirror:
		return "mirror"
	default:
		return fmt.Sprintf("Overlap(%d)", int(o))
	}
}

// InterestMap is one worker's delivery filter: the hashed vertex range it
// owns (via the Router) plus the halo it currently subscribes to — every
// vertex with at least one node in the worker's own prefix-tree index,
// maintained incrementally from the index's membership events (install
// Observe through core.Engine.SetMembershipListener). Membership of
// index.Star stands for "this worker holds at least one ImplicitTooDense
// family"; it does not blanket-subscribe the worker to positives, but gates
// the exact residual check (core.Engine.StarNeedsPositive) workers run when
// Wants declines a positive update.
//
// The map is consulted and mutated only on its worker's goroutine, so it
// needs no locking; Subscriptions/Churn snapshots are safe whenever the
// deployment is quiescent (Flush/Stats hold the barrier).
type InterestMap struct {
	router Router
	shard  int

	subscribed map[core.Vertex]struct{}
	stars      bool // index.Star subscribed: some ImplicitTooDense family exists

	grows  uint64 // subscriptions gained (first node for a vertex)
	lapses uint64 // subscriptions dropped (last node for a vertex gone)
}

// NewInterestMap returns the interest map of worker shard under router,
// with no subscriptions (matching a fresh engine's empty index).
func NewInterestMap(router Router, shard int) *InterestMap {
	return &InterestMap{
		router:     router,
		shard:      shard,
		subscribed: make(map[core.Vertex]struct{}),
	}
}

// Observe is the index membership listener: it mirrors label-presence
// transitions into the subscription set.
func (m *InterestMap) Observe(v core.Vertex, present bool) {
	if present {
		m.subscribed[v] = struct{}{}
		m.grows++
		if v == index.Star {
			m.stars = true
		}
		return
	}
	delete(m.subscribed, v)
	m.lapses++
	if v == index.Star {
		m.stars = false
	}
}

// Owns reports whether this worker's shard owns vertex v under the router.
func (m *InterestMap) Owns(v core.Vertex) bool { return m.router.Owner(v) == m.shard }

// Subscribed reports whether v is currently in the worker's halo.
func (m *InterestMap) Subscribed(v core.Vertex) bool {
	_, ok := m.subscribed[v]
	return ok
}

// HasStars reports whether the worker currently holds any ImplicitTooDense
// family (equivalently, whether index.Star is subscribed).
func (m *InterestMap) HasStars() bool { return m.stars }

// Wants reports whether update u must be delivered to this worker for full
// processing. It is symmetric in the update's endpoints (orientation
// invariant) and deliberately conservative in exactly the directions the
// engine needs:
//
//   - No-op updates (A == B or Delta == 0) are never wanted: the full path
//     does nothing with them either.
//   - Positive deltas are wanted by the seeder (primary shard) and by any
//     worker whose index touches an endpoint.
//   - Negative deltas only shrink indexed subgraphs containing BOTH
//     endpoints, so both must be subscribed; seeding and stars are
//     irrelevant.
//
// Wants does NOT account for ImplicitTooDense families: a star family whose
// base excludes both endpoints can still absorb a positive update when an
// endpoint was previously disconnected from the base. That residual case is
// exact but needs the graph, so the worker resolves it itself: when Wants is
// false, HasStars is true, and the delta is positive, consult
// core.Engine.StarNeedsPositive before falling back to ApplyOnly.
//
// A worker for which both Wants and that star check are false may process u
// via Engine.ApplyOnly with bit-identical output (see that method for the
// full argument).
func (m *InterestMap) Wants(u graph.Update) bool {
	if u.A == u.B || u.Delta == 0 {
		return false
	}
	if u.Delta > 0 {
		return m.Owns(Canonical(u)) || m.Subscribed(u.A) || m.Subscribed(u.B)
	}
	return m.Subscribed(u.A) && m.Subscribed(u.B)
}

// Subscriptions returns the current number of subscribed labels (counting
// index.Star as one when present).
func (m *InterestMap) Subscriptions() int { return len(m.subscribed) }

// Churn returns the cumulative subscription transitions: grows counts
// first-node arrivals, lapses last-node departures. A vertex that lapses and
// later regrows counts in both.
func (m *InterestMap) Churn() (grows, lapses uint64) { return m.grows, m.lapses }
