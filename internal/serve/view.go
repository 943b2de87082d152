package serve

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"

	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// SubgraphRef is one live output-dense subgraph of a story as the serving
// layer sees it: the vertex set that identifies it and the density annotated
// on the engine event that last crossed its output threshold (see
// story.Subgraph). Clients read the set as its canonical "key" ("1,2,10"),
// which the HTTP layer appends to the response vertex by vertex: no key string
// is built on the serving path.
type SubgraphRef = story.Subgraph

// Entry is one immutable story row of a published Snapshot. Everything it
// references (the entity set, the subgraph slice) is frozen at publish time;
// readers may hold an Entry for as long as they like.
type Entry struct {
	ID        story.ID
	Entities  vset.Set
	Density   float64       // max density over live subgraphs; last-known for fading stories
	Subgraphs []SubgraphRef // in canonical (vset.CompareKeys) order
	BornSeq   uint64
	LastSeq   uint64
	Fading    bool
}

// Snapshot is one immutable, internally consistent picture of the story
// table at a single update boundary. Published snapshots are copy-on-write:
// entries untouched since the previous boundary are shared between
// consecutive snapshots, and a boundary that touched no story shares the
// whole table, so publishing costs O(changed) plus one copy of the table's
// pointer slice, never O(stream).
//
// All fields are read-only after publication. Tearing is impossible by
// construction: a reader that loads a Snapshot sees the ranking and the story
// table of the same epoch.
type Snapshot struct {
	// Epoch is the update boundary (engine sequence number) this snapshot
	// corresponds to. Boundaries that deliver neither an event nor a
	// lifecycle record do not publish, so consecutive snapshots may skip
	// epochs.
	Epoch uint64

	// Stories holds one immutable entry per story, live and fading alike, in
	// ascending ID order; Story looks one up.
	Stories []*Entry

	// Ranked orders the stories that currently own at least one live
	// output-dense subgraph by density descending (ties to the lower ID).
	// Fading stories are not ranked — their density is stale by definition —
	// but stay queryable through Stories.
	Ranked []Rank

	// LiveSubgraphs is the number of live output-dense subgraphs over all
	// entries — the size of the engine's output-dense set at this boundary
	// (modulo a MinCardinality filter, if one is configured upstream).
	LiveSubgraphs int
}

// findEntry returns the position of a story ID in an ID-sorted table, or
// where it would be inserted.
func findEntry(table []*Entry, id story.ID) (int, bool) {
	return slices.BinarySearchFunc(table, id, func(e *Entry, id story.ID) int { return cmp.Compare(e.ID, id) })
}

// Story returns the entry of a story ID by binary search.
func (s *Snapshot) Story(id story.ID) (*Entry, bool) {
	i, ok := findEntry(s.Stories, id)
	if !ok {
		return nil, false
	}
	return s.Stories[i], true
}

// LiveKeys renders the sorted canonical-key universe of all live subgraphs —
// exactly the engine's OutputDenseKeys() at this boundary when no
// MinCardinality filter sits upstream. It builds every string on demand: a
// conformance instrument for tests, not a serving path.
func (s *Snapshot) LiveKeys() []string {
	keys := make([]string, 0, s.LiveSubgraphs)
	for _, e := range s.Stories {
		for _, sg := range e.Subgraphs {
			keys = append(keys, sg.Set.Key())
		}
	}
	sort.Strings(keys)
	return keys
}

// Top returns the k highest-density ranked entries (fewer if the ranking is
// smaller) as a shared sub-slice of the immutable ranking: O(1), zero
// allocations, and — pinned by tests — no story-table scan.
func (s *Snapshot) Top(k int) []Rank {
	if k < 0 {
		k = 0
	}
	if k > len(s.Ranked) {
		k = len(s.Ranked)
	}
	return s.Ranked[:k:k]
}

// ViewStats is a point-in-time summary of a View for /stats.
type ViewStats struct {
	Epoch         uint64 `json:"epoch"`
	LastSeq       uint64 `json:"last_seq"`
	Stories       int    `json:"stories"`
	Fading        int    `json:"fading"`
	LiveSubgraphs int    `json:"live_subgraphs"`
	Publishes     uint64 `json:"publishes"`
	Boundaries    uint64 `json:"boundaries"`
	Records       uint64 `json:"records"`
}

// View is the concurrent read surface of the serving layer: a single atomic
// pointer to the latest Snapshot. The writer (Builder) publishes whole
// immutable snapshots; any number of readers load them wait-free. Readers
// never block the writer and never observe a torn table — the classic
// copy-on-write snapshot discipline.
type View struct {
	cur atomic.Pointer[Snapshot]

	lastSeq    atomic.Uint64 // most recent boundary seen, published or not
	publishes  atomic.Uint64
	boundaries atomic.Uint64
	records    atomic.Uint64
}

// NewView returns a View holding an empty epoch-0 snapshot.
func NewView() *View {
	v := &View{}
	v.cur.Store(&Snapshot{})
	return v
}

// Snapshot returns the latest published snapshot. The result is immutable
// and safe to use indefinitely.
func (v *View) Snapshot() *Snapshot { return v.cur.Load() }

// LastSeq returns the most recent update boundary the writer has completed —
// ahead of Snapshot().Epoch whenever trailing boundaries changed nothing.
func (v *View) LastSeq() uint64 { return v.lastSeq.Load() }

// Stats summarises the view. The counters and the snapshot are read
// independently, so they may straddle a publish; each value is individually
// consistent.
func (v *View) Stats() ViewStats {
	s := v.cur.Load()
	fading := 0
	for _, e := range s.Stories {
		if e.Fading {
			fading++
		}
	}
	return ViewStats{
		Epoch:         s.Epoch,
		LastSeq:       v.lastSeq.Load(),
		Stories:       len(s.Stories),
		Fading:        fading,
		LiveSubgraphs: s.LiveSubgraphs,
		Publishes:     v.publishes.Load(),
		Boundaries:    v.boundaries.Load(),
		Records:       v.records.Load(),
	}
}

// noteBoundary records that the writer completed boundary s (publish or
// not).
func (v *View) noteBoundary(s uint64) {
	v.lastSeq.Store(s)
	v.boundaries.Add(1)
}

// publish installs a new snapshot.
func (v *View) publish(s *Snapshot) {
	v.cur.Store(s)
	v.publishes.Add(1)
}
