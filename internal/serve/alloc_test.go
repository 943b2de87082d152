package serve

import (
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// Allocation pins of the sink path: what an update costs between the engine's
// Emit and the published snapshot, counted with testing.AllocsPerRun. The
// sets of the events are built beforehand — a retaining sink is handed private
// copies by the engine, and that copy is the engine's allocation, not the
// sink's.

// liveStoryBuilder returns a builder (MinCardinality 3) serving one live
// story over entities 0..4: small enough that every 3-subset of it clears
// the default continuity threshold (Jaccard 3/5) and joins it.
func liveStoryBuilder(t *testing.T) *Builder {
	t.Helper()
	b := NewBuilder(story.MustTracker(story.Config{MinCardinality: 3}))
	b.Emit(core.Event{Kind: core.BecameOutputDense, Set: vset.New(0, 1, 2, 3, 4), Density: 9})
	b.EndUpdate()
	if snap := b.View().Snapshot(); len(snap.Stories) != 1 || snap.LiveSubgraphs != 1 {
		t.Fatalf("fixture: %d stories, %d live subgraphs, want 1 and 1", len(snap.Stories), snap.LiveSubgraphs)
	}
	return b
}

// TestBelowMinCardinalityUpdateAllocs: an update whose events are all below
// MinCardinality is dropped at the tracker's door — nothing is buffered,
// sorted or keyed — and touches no story, so its boundary shares the whole
// previous table. The one allocation left is the Snapshot header itself: the
// boundary still publishes, as it always has when an update delivered events,
// which keeps Epoch and the publish counter what they were.
func TestBelowMinCardinalityUpdateAllocs(t *testing.T) {
	b := liveStoryBuilder(t)
	evs := []core.Event{
		{Kind: core.BecameOutputDense, Set: vset.New(20, 21), Density: 7},
		{Kind: core.CeasedOutputDense, Set: vset.New(22, 23), Density: 6},
		{Kind: core.BecameOutputDense, Set: vset.New(1, 2), Density: 8},
	}
	before := b.View().Snapshot()
	allocs := testing.AllocsPerRun(100, func() {
		for _, ev := range evs {
			b.Emit(ev)
		}
		b.EndUpdate()
	})
	if allocs != 1 {
		t.Errorf("pair-only update allocated %v times, want 1 (the Snapshot header)", allocs)
	}
	after := b.View().Snapshot()
	if after.Epoch != before.Epoch+101 { // the warm-up run and the 100 measured ones
		t.Fatalf("epoch went %d → %d: the updates did not publish", before.Epoch, after.Epoch)
	}
	if &after.Stories[0] != &before.Stories[0] || after.LiveSubgraphs != 1 {
		t.Fatal("a pair-only update copied or changed the story table")
	}
}

// TestSubsetAttachAllocs: a became that attaches a subgraph inside an existing
// story's entity set — the common event of a live story — allocates exactly
// what its boundary publishes: the Snapshot header, the table's pointer slice,
// the story's new Entry and that entry's subgraph slice. The tracker's side
// (table insert, entity union, ownership) allocates nothing, and no key string
// is built anywhere.
func TestSubsetAttachAllocs(t *testing.T) {
	b := liveStoryBuilder(t)
	var subsets []vset.Set
	for i := vset.Vertex(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			for k := j + 1; k < 5; k++ {
				subsets = append(subsets, vset.New(i, j, k))
			}
		}
	}
	// Grow the tracker's live table to its final capacity first, then empty
	// it again: table growth is amortised, not per-update.
	attach := func(set vset.Set) {
		b.Emit(core.Event{Kind: core.BecameOutputDense, Set: set, Density: 5})
		b.EndUpdate()
	}
	for _, set := range subsets {
		attach(set)
	}
	for _, set := range subsets {
		b.Emit(core.Event{Kind: core.CeasedOutputDense, Set: set})
	}
	b.EndUpdate()
	if snap := b.View().Snapshot(); snap.LiveSubgraphs != 1 {
		t.Fatalf("fixture: %d live subgraphs after the warm-up, want 1", snap.LiveSubgraphs)
	}

	next := 0
	allocs := testing.AllocsPerRun(len(subsets)-1, func() {
		attach(subsets[next])
		next++
	})
	if allocs != 4 {
		t.Errorf("subset attach allocated %v times, want 4 (Snapshot, table slice, Entry, its subgraphs)", allocs)
	}
	snap := b.View().Snapshot()
	if snap.LiveSubgraphs != 1+len(subsets) || len(snap.Stories) != 1 || !snap.Stories[0].Entities.Equal(vset.New(0, 1, 2, 3, 4)) {
		t.Fatalf("after the attaches: %d live subgraphs in %d stories, entities %v", snap.LiveSubgraphs, len(snap.Stories), snap.Stories[0].Entities)
	}
	checkMatchesTracker(t, b)
}
