package story

import (
	"fmt"
	"slices"

	"dyndens/internal/vset"
)

// This file is the story half of crash recovery (internal/persist): the
// tracker's table, per-kind record counts, and ID counter export to a plain
// value and import into a fresh tracker, so a restarted pipeline resumes with
// story identities intact — the property the paper's real-time story
// identification is about.

// StoryState is the persisted form of one story-table row.
type StoryState struct {
	ID       ID
	Entities vset.Set
	Live     []vset.Set // live subgraph sets, sorted by canonical key
	BornSeq  uint64
	LastSeq  uint64
	FadeSeq  uint64
	SnapSeq  uint64
	Snapshot vset.Set
}

// TrackerState is the persisted state of a Tracker at a quiescent boundary
// (Sync'd, no buffered events). Stories are sorted by ID. Its size is
// proportional to the story table, not to the stream: the records themselves
// went to the record sink, and only their counts are kept.
type TrackerState struct {
	Seq     uint64
	NextID  ID
	Stories []StoryState
	// Counts is the number of lifecycle records emitted so far, indexed by
	// LifecycleKind (index 0 is unused).
	Counts [Died + 1]int
}

// ExportState captures the tracker's table, record counts, and ID counter.
// It fails if events are still buffered: call Sync at a quiesced boundary
// first.
func (t *Tracker) ExportState() (TrackerState, error) {
	if t.pendingSeq != 0 || len(t.buf) > 0 {
		return TrackerState{}, fmt.Errorf("story: tracker export requires a resolved boundary (call Sync)")
	}
	st := TrackerState{Seq: t.seq, NextID: t.nextID, Counts: t.kinds}
	for _, s := range t.stories {
		row := StoryState{
			ID:       s.id,
			Entities: s.entities.Clone(),
			BornSeq:  s.bornSeq,
			LastSeq:  s.lastSeq,
			FadeSeq:  s.fadeSeq,
			SnapSeq:  s.snapSeq,
			Snapshot: s.snapshot.Clone(),
		}
		for _, sub := range t.AppendLive(nil, s.id) {
			row.Live = append(row.Live, sub.Set.Clone())
		}
		st.Stories = append(st.Stories, row)
	}
	return st, nil
}

// NewTrackerFromState builds a tracker resuming from an exported state: the
// story table (including fade snapshots and grace bookkeeping), the record
// counts, the ID counter, and the resolved sequence all come back exactly, so
// subsequent events produce the same records — and Stats the same totals — an
// uninterrupted tracker would have. Every story enters the table by Born or
// Split and leaves it by Merged or Died, so counts that disagree with the
// number of rows are rejected.
func NewTrackerFromState(cfg Config, st TrackerState) (*Tracker, error) {
	t, err := NewTracker(cfg)
	if err != nil {
		return nil, err
	}
	if st.NextID == 0 {
		return nil, fmt.Errorf("story: restored next story ID must be ≥ 1")
	}
	t.seq = st.Seq
	t.nextID = st.NextID
	for _, row := range st.Stories {
		if row.ID == 0 || row.ID >= st.NextID {
			return nil, fmt.Errorf("story: restored story ID %d outside [1, %d)", row.ID, st.NextID)
		}
		if n := len(t.stories); n > 0 && t.stories[n-1].id >= row.ID {
			return nil, fmt.Errorf("story: restored story ID %d after %d: not ascending", row.ID, t.stories[n-1].id)
		}
		if (row.FadeSeq == 0) != (len(row.Live) > 0) {
			return nil, fmt.Errorf("story: restored story %d has fade sequence %d with %d live subgraphs", row.ID, row.FadeSeq, len(row.Live))
		}
		for _, set := range row.Live {
			at, taken := t.findLive(set)
			if taken {
				return nil, fmt.Errorf("story: restored subgraph %v owned by both story %d and %d", set, t.live[at].owner, row.ID)
			}
			t.live = slices.Insert(t.live, at, liveSub{Subgraph{Set: set}, row.ID})
		}
		t.stories = append(t.stories, &storyState{
			id:       row.ID,
			entities: row.Entities,
			subs:     len(row.Live),
			bornSeq:  row.BornSeq,
			lastSeq:  row.LastSeq,
			fadeSeq:  row.FadeSeq,
			snapSeq:  row.SnapSeq,
			snapshot: row.Snapshot,
		})
	}
	c := st.Counts
	for k := Born; k <= Died; k++ {
		if c[k] < 0 {
			return nil, fmt.Errorf("story: restored %s count %d is negative", k, c[k])
		}
	}
	if rows := c[Born] + c[Split] - c[Merged] - c[Died]; rows != len(st.Stories) {
		return nil, fmt.Errorf("story: restored counts born=%d split=%d merged=%d died=%d leave %d stories, the table has %d",
			c[Born], c[Split], c[Merged], c[Died], rows, len(st.Stories))
	}
	t.kinds = c
	return t, nil
}
