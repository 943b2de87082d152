// Package story is the application layer of the DynDens pipeline: it turns
// the engine's stream of output-dense subgraph changes into *stories* with
// persistent identities, the user-facing result of the paper's real-time
// story identification system (Section 2).
//
// The engine reports anonymous set transitions — BecameOutputDense{a,b,c},
// CeasedOutputDense{a,b,c,d} — while a user following a news event wants "the
// same story" to keep its identity as entities join and leave, as the fading
// weights briefly drop it below the output threshold between epochs, and as
// two threads of coverage merge or one splits. The Tracker in this package
// maintains that mapping incrementally from sink events alone: it never
// queries the engine, so it works identically behind a single core.Engine and
// behind the merged event stream of a K-shard deployment.
package story

import (
	"fmt"

	"dyndens/internal/vset"
)

// ID identifies a story. IDs are assigned sequentially from 1 in the order
// stories are born, so equal event streams always produce equal IDs.
type ID uint64

// LifecycleKind classifies a story lifecycle transition.
type LifecycleKind uint8

const (
	// Born: a subgraph became output-dense and matched no existing story.
	Born LifecycleKind = iota + 1
	// Updated: a story's entity set changed (it gained or lost subgraphs),
	// or it recovered a live subgraph while fading.
	Updated
	// Merged: a story was absorbed into another (Other) after one subgraph
	// bridged both above the continuity threshold.
	Merged
	// Split: a story was born from the fade-time entity snapshot of an
	// existing story (Other) — one thread of coverage forked into two.
	Split
	// Died: a fading story exhausted its grace window with no live subgraph.
	Died
)

// String implements fmt.Stringer.
func (k LifecycleKind) String() string {
	switch k {
	case Born:
		return "born"
	case Updated:
		return "updated"
	case Merged:
		return "merged"
	case Split:
		return "split"
	case Died:
		return "died"
	default:
		return fmt.Sprintf("LifecycleKind(%d)", uint8(k))
	}
}

// Record is one story lifecycle transition. The sequence of Records is the
// deterministic, machine-comparable output of the tracker: two runs over the
// same update stream — single-engine or sharded — produce identical records.
type Record struct {
	// Seq is the 1-based update sequence number at which the transition took
	// effect. For Died it is the logical expiry sequence (fade + grace + 1),
	// which may point between event-carrying updates.
	Seq uint64
	// Kind is the transition.
	Kind LifecycleKind
	// Story is the story the record is about.
	Story ID
	// Other is the counterparty: the absorbing story for Merged, the parent
	// story for Split, and 0 otherwise.
	Other ID
	// Entities is the story's entity set after the transition (the last
	// known set for Died).
	Entities vset.Set
}

// String formats the record the way the stories CLI logs it.
func (r Record) String() string {
	switch r.Kind {
	case Merged:
		return fmt.Sprintf("[seq %d] %-7s story=%d into=%d %v", r.Seq, r.Kind, r.Story, r.Other, r.Entities)
	case Split:
		return fmt.Sprintf("[seq %d] %-7s story=%d from=%d %v", r.Seq, r.Kind, r.Story, r.Other, r.Entities)
	default:
		return fmt.Sprintf("[seq %d] %-7s story=%d %v", r.Seq, r.Kind, r.Story, r.Entities)
	}
}

// Snapshot is one row of the queryable current-story table.
type Snapshot struct {
	ID ID
	// Entities is the union of the story's live subgraph sets (the fade-time
	// snapshot while the story is fading).
	Entities vset.Set
	// Subgraphs is the number of currently output-dense subgraphs backing
	// the story (0 while fading).
	Subgraphs int
	// BornSeq and LastSeq delimit the story's observed activity.
	BornSeq, LastSeq uint64
	// Fading reports that the story currently has no live subgraph and is
	// waiting out its grace window.
	Fading bool
}
