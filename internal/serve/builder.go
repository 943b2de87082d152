package serve

import (
	"slices"

	"dyndens/internal/core"
	"dyndens/internal/shard"
	"dyndens/internal/story"
)

// Builder is the writer side of the serving layer. It sits in the sink
// position of the pipeline, wrapping a story.Tracker: every event is
// forwarded to the tracker, which resolves it into the story table and the
// canonical lifecycle records, and at each update boundary that delivered an
// event or a record the builder publishes the table to a View as an immutable
// Snapshot.
//
// The tracker owns every fact about a story — its entity set, sequences and
// live subgraphs with their densities — and reports which stories an update
// touched (Tracker.Touched), so the builder keeps no second copy: a boundary
// rebuilds the entries of the touched stories from the tracker's rows and
// shares every other entry with the previous snapshot. What the builder does
// own is derived serving state: the density ranking. There is no entity
// index: GET /entities/{e} scans the table, which holds only the live and
// fading stories.
//
// Install it with Engine.SetSink: it implements core.EventSink and
// core.UpdateBoundarySink. Like the tracker it wraps, it also implements
// shard.SeqSink, inferring boundaries from sequence numbers, only because
// bench/par.go installs it that way (ROADMAP item 7).
//
// The Builder runs on the writer goroutine and is not safe for concurrent use; the View it publishes to is the
// concurrent read surface. NewBuilder installs the builder as the tracker's
// record sink — use Builder.SetRecordSink to observe records downstream.
//
// The published table matches Tracker.Stories() row for row — pinned by the
// conformance tests.
type Builder struct {
	tracker *story.Tracker
	view    *View

	pendingSeq uint64 // EmitSeq mode: sequence the delivered events belong to
	pending    bool   // an event or a record arrived since the last boundary
	onRecord   func(story.Record)

	rank RankedIndex
}

// NewBuilder wraps a tracker in a serving builder with a fresh View. The
// builder must be installed before the first update is processed, and it
// takes over the tracker's record sink.
func NewBuilder(tr *story.Tracker) *Builder {
	b := &Builder{tracker: tr, view: NewView()}
	tr.SetRecordSink(b.captureRecord)
	return b
}

// View returns the read surface the builder publishes to.
func (b *Builder) View() *View { return b.view }

// SetRecordSink installs a callback invoked for every lifecycle record as
// the tracker produces it, in order — the hook the SSE hub and the serve CLI
// log hang off. The callback runs on the writer goroutine and must treat
// Record.Entities as read-only.
func (b *Builder) SetRecordSink(fn func(story.Record)) { b.onRecord = fn }

func (b *Builder) captureRecord(r story.Record) {
	b.pending = true
	b.view.records.Add(1)
	if b.onRecord != nil {
		b.onRecord(r)
	}
}

// Emit implements core.EventSink: the event goes to the tracker, and its
// update's boundary will publish.
func (b *Builder) Emit(ev core.Event) {
	b.tracker.Emit(ev)
	b.pending = true
}

// EndUpdate implements core.UpdateBoundarySink.
func (b *Builder) EndUpdate() {
	b.tracker.EndUpdate()
	b.boundary(b.tracker.Seq())
}

// EmitSeq implements shard.SeqSink: a sequence change means the tracker
// resolved the previous update when the event was forwarded, so the builder
// publishes that update before counting the new event.
func (b *Builder) EmitSeq(ev shard.SeqEvent) {
	old := b.pendingSeq
	b.tracker.EmitSeq(ev)
	if old != 0 && ev.Seq != old {
		b.boundary(old)
	}
	b.pendingSeq = ev.Seq
	b.pending = true
}

// Close resolves any buffered update, accounts for trailing event-free
// updates up to finalSeq (see Tracker.Close), and publishes the final
// snapshot.
func (b *Builder) Close(finalSeq uint64) {
	b.Sync() // the buffered update publishes at its own sequence
	b.tracker.Close(finalSeq)
	b.boundary(b.tracker.Seq())
}

// boundary publishes update s if it delivered anything. Boundaries that did
// not — the common case on a fading stream — cost two atomic stores.
func (b *Builder) boundary(s uint64) {
	b.view.noteBoundary(s)
	if b.pending {
		b.publish(s, b.tracker.Touched())
		b.pending = false
	}
}

// noEntry stands for "the story has no entry" on either side of a boundary.
var noEntry Entry

// publish installs the snapshot of boundary s: the previous one with the
// entries of the touched stories rebuilt from the tracker (or dropped, for a
// story that died or was merged away). Untouched entries and the ranking are
// shared with the previous snapshot wherever nothing changed.
func (b *Builder) publish(s uint64, touched []story.ID) {
	prev := b.view.Snapshot()
	ns := &Snapshot{Epoch: s, Stories: prev.Stories, Ranked: prev.Ranked, LiveSubgraphs: prev.LiveSubgraphs}
	if len(touched) > 0 {
		ns.Stories = make([]*Entry, len(prev.Stories), len(prev.Stories)+len(touched))
		copy(ns.Stories, prev.Stories)
	}
	rankChanged := false
	for _, id := range touched {
		old, ent := &noEntry, &noEntry
		at, had := findEntry(ns.Stories, id)
		if had {
			old = ns.Stories[at]
		}
		row, has := b.tracker.Story(id)
		if has {
			ent = b.buildEntry(row, old)
		}
		switch {
		case had && has:
			ns.Stories[at] = ent
		case has:
			ns.Stories = slices.Insert(ns.Stories, at, ent)
		case had:
			ns.Stories = slices.Delete(ns.Stories, at, at+1)
		}
		ns.LiveSubgraphs += len(ent.Subgraphs) - len(old.Subgraphs)

		// Only stories with a live subgraph are ranked.
		before, ranked := b.rank.Density(id)
		switch live := len(ent.Subgraphs) > 0; {
		case !live && ranked:
			b.rank.Remove(id)
			rankChanged = true
		case live && (!ranked || before != ent.Density):
			b.rank.Set(id, ent.Density)
			rankChanged = true
		}
	}

	if rankChanged {
		ns.Ranked = b.rank.Clone()
	}
	b.view.publish(ns)
}

// buildEntry freezes a story's tracker row into an immutable Entry. old is
// the story's entry in the previous snapshot: a fading story keeps the
// density it last had.
func (b *Builder) buildEntry(row story.Snapshot, old *Entry) *Entry {
	ent := &Entry{
		ID:       row.ID,
		Entities: row.Entities,
		Density:  old.Density,
		BornSeq:  row.BornSeq,
		LastSeq:  row.LastSeq,
		Fading:   row.Fading,
	}
	if row.Subgraphs > 0 {
		ent.Subgraphs = b.tracker.AppendLive(make([]SubgraphRef, 0, row.Subgraphs), row.ID)
		ent.Density = 0
		for _, sg := range ent.Subgraphs {
			ent.Density = max(ent.Density, sg.Density)
		}
	}
	return ent
}
