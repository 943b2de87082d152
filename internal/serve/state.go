package serve

import (
	"dyndens/internal/core"
	"dyndens/internal/story"
)

// This file is the serving half of crash recovery (internal/persist). The
// Builder's table is a deterministic fold of the tracker's story table plus
// per-subgraph densities, so it is not persisted separately: a restored
// builder is reconstructed from the restored tracker and the engine's
// current output-dense densities, then behaves exactly like one that folded
// the whole stream.

// Sync resolves any buffered update (the EmitSeq-mode event buffer) and
// publishes it, bringing the builder — and the tracker it wraps — to a
// quiescent, exportable boundary. A no-op when nothing is buffered.
func (b *Builder) Sync() {
	if b.tracker.Sync() {
		b.boundary(b.tracker.Seq())
		b.pendingSeq = 0
	}
}

// NewBuilderFromState wraps a tracker restored via story.NewTrackerFromState
// and publishes its table at the restored sequence. dense is the restored
// engine's output-dense set: it gives the live subgraphs their densities
// back. A subgraph missing from it restores with density 0, as do fading
// stories — the last-known density is a serving cache, not durable state, and
// heals at the story's next event. The view's record counter resumes from the
// tracker's restored totals, so /stats counts the whole stream.
func NewBuilderFromState(tr *story.Tracker, dense []core.Subgraph) *Builder {
	b := NewBuilder(tr)
	for _, sg := range dense {
		tr.SetDensity(sg.Set, sg.Density)
	}
	s := tr.Stats()
	b.view.records.Store(uint64(s.Born + s.Updated + s.Merged + s.Split + s.Died))
	rows := tr.Stories()
	ids := make([]story.ID, len(rows))
	for i, row := range rows {
		ids[i] = row.ID
	}
	b.view.noteBoundary(tr.Seq())
	b.publish(tr.Seq(), ids)
	return b
}
