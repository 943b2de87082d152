package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// raceEnabled is set under the race detector, whose sync.Pool drops a share
// of the values put back at random.
var raceEnabled bool

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

// TestPublishAllocsIndependentOfEntityCount: a boundary that moves an entity
// into or out of a story allocates the same whether 10 or 2 000 other stories,
// each with its own entities, are in the table. The snapshot carries no entity
// index to copy: GET /entities/{e} scans the table instead.
func TestPublishAllocsIndependentOfEntityCount(t *testing.T) {
	grow := vset.New(0, 1, 2, 3, 5) // joins the story over 0..4 (Jaccard 4/6) and brings entity 5
	cycle := func(others int) float64 {
		b := liveStoryBuilder(t)
		for i := range others {
			v := vset.Vertex(100 + 3*i)
			b.Emit(core.Event{Kind: core.BecameOutputDense, Set: vset.New(v, v+1, v+2), Density: 5})
			b.EndUpdate()
		}
		b.Emit(core.Event{Kind: core.BecameOutputDense, Set: grow, Density: 5})
		b.EndUpdate()
		snap := b.View().Snapshot()
		if len(snap.Stories) != others+1 || !snap.Stories[0].Entities.Equal(vset.New(0, 1, 2, 3, 4, 5)) {
			t.Fatalf("fixture: %d stories, want %d; the first over %v, want entities 0..5", len(snap.Stories), others+1, snap.Stories[0].Entities)
		}
		return testing.AllocsPerRun(50, func() {
			b.Emit(core.Event{Kind: core.CeasedOutputDense, Set: grow})
			b.EndUpdate()
			b.Emit(core.Event{Kind: core.BecameOutputDense, Set: grow, Density: 5})
			b.EndUpdate()
		})
	}
	if few, many := cycle(10), cycle(2000); few != many {
		t.Errorf("moving one entity out of a story and back allocated %v times beside 10 stories, %v beside 2000", few, many)
	}
}

// Allocation pins of the read path: what one request costs inside the
// handler, counted with a ResponseWriter that drops the body. The responses
// are rendered into a pooled buffer that the warm-up run has grown, so the
// count is a constant — the same for any k and any number of subgraphs or
// matching stories.

// discardWriter is a ResponseWriter that keeps the status and the body length
// and drops the body.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func newDiscardWriter() *discardWriter { return &discardWriter{header: http.Header{}} }

func (w *discardWriter) Header() http.Header    { return w.header }
func (w *discardWriter) WriteHeader(status int) { w.status = status }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// readRequest is a GET of path with its pattern's path value set, ready to
// hand to a handler method directly.
func readRequest(path, name, value string) *http.Request {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	if name != "" {
		r.SetPathValue(name, value)
	}
	return r
}

// readAllocs returns the allocations of one request, and fails the test unless
// the handler answered 200 with a body.
func readAllocs(t *testing.T, h http.HandlerFunc, r *http.Request) float64 {
	t.Helper()
	w := newDiscardWriter()
	allocs := testing.AllocsPerRun(100, func() {
		w.status, w.n = 0, 0
		h(w, r)
	})
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("GET %s: status %d, %d body bytes", r.URL, w.status, w.n)
	}
	return allocs
}

// readFixture serves one live story with eleven subgraphs (entities 0..4)
// and twelve one-subgraph stories {7, 20+10i, 21+10i} that share entity 7.
func readFixture(t *testing.T) *Server {
	t.Helper()
	b := liveStoryBuilder(t)
	for i := vset.Vertex(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			for k := j + 1; k < 5; k++ {
				b.Emit(core.Event{Kind: core.BecameOutputDense, Set: vset.New(i, j, k), Density: 5})
			}
		}
	}
	b.EndUpdate()
	for i := vset.Vertex(0); i < 12; i++ {
		b.Emit(core.Event{Kind: core.BecameOutputDense, Set: vset.New(7, 20+10*i, 21+10*i), Density: 1 + float64(i)/8})
		b.EndUpdate()
	}
	snap := b.View().Snapshot()
	if len(snap.Ranked) != 13 || len(snap.Stories[0].Subgraphs) != 11 || len(storiesWith(snap, 7)) != 12 {
		t.Fatalf("fixture: %d ranked, %d subgraphs in story %d, %d stories on entity 7",
			len(snap.Ranked), len(snap.Stories[0].Subgraphs), snap.Stories[0].ID, len(storiesWith(snap, 7)))
	}
	return NewServer(b.View(), nil)
}

// TestReadHandlerAllocs pins each read handler to a small constant number of
// allocations per request, independent of k, of the story's subgraph count
// and of how many stories an entity is in.
func TestReadHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	s := readFixture(t)
	snap := s.view.Snapshot()
	wide, narrow := snap.Stories[0], snap.Stories[1]
	id := func(e *Entry) string { return strconv.FormatUint(uint64(e.ID), 10) }
	for _, c := range []struct {
		name  string
		h     http.HandlerFunc
		reqs  []*http.Request
		limit float64
	}{
		{"top", s.handleTop, []*http.Request{
			readRequest("/stories/top?k=1", "", ""),
			readRequest("/stories/top?k=10", "", ""),
			readRequest("/stories/top?k=1000000000", "", ""), // more than ranked: the whole ranking
		}, 3}, // the url.Values of r.URL.Query()
		{"story", s.handleStory, []*http.Request{
			readRequest("/stories/"+id(narrow), "id", id(narrow)),
			readRequest("/stories/"+id(wide), "id", id(wide)),
		}, 0},
		{"entity", s.handleEntity, []*http.Request{
			readRequest("/entities/20", "e", "20"),
			readRequest("/entities/7", "e", "7"),
			readRequest("/entities/99", "e", "99"), // in no story
		}, 0},
	} {
		first := readAllocs(t, c.h, c.reqs[0])
		if first > c.limit {
			t.Errorf("%s: GET %s allocated %v times, want at most %v", c.name, c.reqs[0].URL, first, c.limit)
		}
		for _, r := range c.reqs[1:] {
			if got := readAllocs(t, c.h, r); got != first {
				t.Errorf("%s: GET %s allocated %v times, GET %s %v: the count grows with the response", c.name, r.URL, got, c.reqs[0].URL, first)
			}
		}
	}
}
