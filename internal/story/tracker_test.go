package story

import (
	"fmt"
	"reflect"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/vset"
)

// turn pushes one update's events through the tracker in Emit mode.
func turn(t *Tracker, evs ...core.Event) {
	for _, ev := range evs {
		t.Emit(ev)
	}
	t.EndUpdate()
}

func became(vs ...vset.Vertex) core.Event {
	return core.Event{Kind: core.BecameOutputDense, Set: vset.New(vs...)}
}

func ceased(vs ...vset.Vertex) core.Event {
	return core.Event{Kind: core.CeasedOutputDense, Set: vset.New(vs...)}
}

// recordLog collects the lifecycle records a tracker streams through its
// record sink, the only place records leave the tracker.
type recordLog struct{ recs []Record }

// logRecords installs a fresh log as tr's record sink.
func logRecords(tr *Tracker) *recordLog {
	l := &recordLog{}
	tr.SetRecordSink(func(r Record) { l.recs = append(l.recs, r) })
	return l
}

// loggedTracker builds a tracker whose records stream into a fresh log.
func loggedTracker(cfg Config) (*Tracker, *recordLog) {
	tr := MustTracker(cfg)
	return tr, logRecords(tr)
}

// kinds extracts the record kinds in order.
func kinds(records []Record) []LifecycleKind {
	out := make([]LifecycleKind, len(records))
	for i, r := range records {
		out[i] = r.Kind
	}
	return out
}

func TestTrackerBornAndUpdated(t *testing.T) {
	tr, log := loggedTracker(Config{})
	turn(tr, became(1, 2, 3))
	turn(tr, became(1, 2, 3, 4)) // Jaccard 3/4 → same story, grown
	turn(tr)                     // event-free update advances the clock only

	recs := log.recs
	if len(recs) != 2 || recs[0].Kind != Born || recs[1].Kind != Updated {
		t.Fatalf("records = %v", recs)
	}
	if recs[0].Story != 1 || recs[1].Story != 1 {
		t.Fatalf("story IDs = %d, %d; want 1, 1", recs[0].Story, recs[1].Story)
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("record seqs = %d, %d; want 1, 2", recs[0].Seq, recs[1].Seq)
	}
	if !recs[1].Entities.Equal(vset.New(1, 2, 3, 4)) {
		t.Fatalf("updated entities = %v", recs[1].Entities)
	}
	stories := tr.Stories()
	if len(stories) != 1 || stories[0].Subgraphs != 2 || stories[0].Fading {
		t.Fatalf("table = %+v", stories)
	}
	if tr.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3", tr.Seq())
	}
}

func TestTrackerShrinkEmitsUpdated(t *testing.T) {
	tr, log := loggedTracker(Config{})
	turn(tr, became(1, 2, 3), became(1, 2, 3, 4))
	turn(tr, ceased(1, 2, 3, 4)) // story keeps subgraph {1,2,3}; entities shrink
	recs := log.recs
	last := recs[len(recs)-1]
	if last.Kind != Updated || !last.Entities.Equal(vset.New(1, 2, 3)) {
		t.Fatalf("records = %v", recs)
	}
	if got := tr.Stories(); len(got) != 1 || got[0].Fading || got[0].Subgraphs != 1 {
		t.Fatalf("table = %+v", got)
	}
}

// TestTrackerFadeReviveKeepsIdentity is the continuity property the layer
// exists for: a story whose only subgraph ceases and is re-discovered within
// the grace window keeps its ID, with no lifecycle noise for the blip.
func TestTrackerFadeReviveKeepsIdentity(t *testing.T) {
	tr, log := loggedTracker(Config{Grace: 10})
	turn(tr, became(1, 2, 3))
	turn(tr, ceased(1, 2, 3)) // fade, no record
	turn(tr)
	turn(tr, became(1, 2, 3, 4)) // revived and grown within grace
	recs := log.recs
	if want := []LifecycleKind{Born, Updated}; !reflect.DeepEqual(kinds(recs), want) {
		t.Fatalf("records = %v, want kinds %v", recs, want)
	}
	stories := tr.Stories()
	if len(stories) != 1 || stories[0].ID != 1 || stories[0].Fading {
		t.Fatalf("table = %+v", stories)
	}
	if !stories[0].Entities.Equal(vset.New(1, 2, 3, 4)) {
		t.Fatalf("entities = %v", stories[0].Entities)
	}
}

// TestTrackerDiesAfterGrace pins the logical expiry sequence: fade at s with
// grace G dies at s+G+1 regardless of when the tracker notices.
func TestTrackerDiesAfterGrace(t *testing.T) {
	tr, log := loggedTracker(Config{Grace: 2})
	turn(tr, became(1, 2, 3)) // seq 1
	turn(tr, ceased(1, 2, 3)) // seq 2: fade
	turn(tr)                  // seq 3: still revivable
	turn(tr)                  // seq 4: last revivable update
	turn(tr)                  // seq 5: grace over → died
	recs := log.recs
	if len(recs) != 2 || recs[1].Kind != Died || recs[1].Seq != 5 {
		t.Fatalf("records = %v", recs)
	}
	if !recs[1].Entities.Equal(vset.New(1, 2, 3)) {
		t.Fatalf("died entities = %v", recs[1].Entities)
	}
	if len(tr.Stories()) != 0 {
		t.Fatalf("table not empty: %+v", tr.Stories())
	}

	// Same history, but the tail is accounted for by Close instead of
	// explicit event-free updates: identical records.
	tr2, log2 := loggedTracker(Config{Grace: 2})
	turn(tr2, became(1, 2, 3))
	turn(tr2, ceased(1, 2, 3))
	tr2.Close(5)
	if !reflect.DeepEqual(log2.recs, recs) {
		t.Fatalf("Close path records %v != explicit path %v", log2.recs, recs)
	}
}

// TestTrackerEventFreeUpdateZeroAlloc pins the steady state of a stream: an
// update with no events, during which no fading story can expire, only moves
// the sequence — no table scan, no sort, no allocation — with live, fading,
// revived and merged-away stories in the table (a revival or a merge leaves
// the tracker's expiry bound lower than it need be, which must stay safe).
// The expiries that fall inside the quiet stretches still happen on their
// logical sequence, also after a restore, which starts without the bound.
func TestTrackerEventFreeUpdateZeroAlloc(t *testing.T) {
	history := func(tr *Tracker) {
		turn(tr, became(1, 2, 3), became(11, 12, 13), became(21, 22, 23), became(31, 32, 33)) // seq 1
		turn(tr, ceased(11, 12, 13))                                                          // seq 2: fades, due at 43
		turn(tr, ceased(21, 22, 23))                                                          // seq 3: fades, due at 44 ...
		turn(tr, became(21, 22, 23))                                                          // seq 4: ... revived
		turn(tr, ceased(31, 32, 33))                                                          // seq 5: fades, due at 46 ...
		turn(tr, became(1, 2, 3, 31, 32, 33))                                                 // seq 6: ... merged into story 1
		turn(tr, ceased(21, 22, 23))                                                          // seq 7: fades again, due at 48
	}
	tr := MustTracker(Config{Grace: 40})
	history(tr)
	log := logRecords(tr) // the quiet stretches run with a sink installed
	quiet := func(tr *Tracker, through uint64) {
		t.Helper()
		n := int(through - tr.Seq())
		if allocs := testing.AllocsPerRun(n-1, tr.EndUpdate); allocs != 0 { // warm-up call + n−1 runs
			t.Fatalf("event-free update before seq %d allocates %v times", through, allocs)
		}
		if tr.Seq() != through {
			t.Fatalf("Seq = %d after the quiet stretch, want %d", tr.Seq(), through)
		}
	}
	quiet(tr, 42)
	turn(tr) // seq 43: story 2 dies
	quiet(tr, 47)
	turn(tr) // seq 48: story 3 dies
	quiet(tr, 100)
	recs := log.recs
	if len(recs) != 2 || recs[0].Kind != Died || recs[0].Seq != 43 || recs[0].Story != 2 ||
		recs[1].Kind != Died || recs[1].Seq != 48 || recs[1].Story != 3 {
		t.Fatalf("expiries inside the quiet stretches = %v", recs)
	}

	ref := MustTracker(Config{Grace: 40})
	history(ref)
	st, err := ref.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewTrackerFromState(Config{Grace: 40}, st)
	if err != nil {
		t.Fatal(err)
	}
	restoredLog := logRecords(restored)
	for restored.Seq() < 100 {
		turn(restored)
	}
	if !reflect.DeepEqual(restoredLog.recs, recs) {
		t.Fatalf("restored tracker streamed %v, uninterrupted %v", restoredLog.recs, recs)
	}
	if restored.Stats() != tr.Stats() {
		t.Fatalf("restored tracker Stats %+v != uninterrupted %+v", restored.Stats(), tr.Stats())
	}
}

// TestTrackerRevivalAtGraceBoundary pins the window edges: a became at
// fade+Grace revives, one update later the story is already dead.
func TestTrackerRevivalAtGraceBoundary(t *testing.T) {
	tr := MustTracker(Config{Grace: 2})
	turn(tr, became(1, 2, 3)) // seq 1
	turn(tr, ceased(1, 2, 3)) // seq 2: fade; revivable through seq 4
	turn(tr)                  // seq 3
	turn(tr, became(1, 2, 3)) // seq 4: revived
	if got := tr.Stories(); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("table = %+v", got)
	}

	tr, log := loggedTracker(Config{Grace: 2})
	turn(tr, became(1, 2, 3))
	turn(tr, ceased(1, 2, 3))
	turn(tr)
	turn(tr)
	turn(tr, became(1, 2, 3)) // seq 5: too late — new story
	recs := log.recs
	if want := []LifecycleKind{Born, Died, Born}; !reflect.DeepEqual(kinds(recs), want) {
		t.Fatalf("records = %v, want kinds %v", recs, want)
	}
	if got := tr.Stories(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("table = %+v", got)
	}
}

func TestTrackerMerge(t *testing.T) {
	tr, log := loggedTracker(Config{})
	turn(tr, became(1, 2, 3))
	turn(tr, became(10, 11, 12))
	// A subgraph bridging both stories at Jaccard 3/6 = 0.5 each.
	turn(tr, became(1, 2, 3, 10, 11, 12))
	recs := log.recs
	if want := []LifecycleKind{Born, Born, Merged, Updated}; !reflect.DeepEqual(kinds(recs), want) {
		t.Fatalf("records = %v, want kinds %v", recs, want)
	}
	merged := recs[2]
	if merged.Story != 2 || merged.Other != 1 {
		t.Fatalf("merged record = %+v, want story 2 into 1", merged)
	}
	stories := tr.Stories()
	if len(stories) != 1 || stories[0].ID != 1 || stories[0].Subgraphs != 3 {
		t.Fatalf("table = %+v", stories)
	}
	if !stories[0].Entities.Equal(vset.New(1, 2, 3, 10, 11, 12)) {
		t.Fatalf("entities = %v", stories[0].Entities)
	}
}

func TestTrackerSplit(t *testing.T) {
	tr, log := loggedTracker(Config{Grace: 10})
	turn(tr, became(1, 2, 3, 4, 5, 6))
	turn(tr, ceased(1, 2, 3, 4, 5, 6)) // fade with snapshot {1..6}
	turn(tr, became(1, 2, 3))          // revives story 1 (Jaccard 3/6 vs snapshot)
	turn(tr, became(4, 5, 6))          // no current match; snapshot match → split
	recs := log.recs
	if want := []LifecycleKind{Born, Updated, Split}; !reflect.DeepEqual(kinds(recs), want) {
		t.Fatalf("records = %v, want kinds %v", recs, want)
	}
	split := recs[2]
	if split.Story != 2 || split.Other != 1 || !split.Entities.Equal(vset.New(4, 5, 6)) {
		t.Fatalf("split record = %+v", split)
	}
	stories := tr.Stories()
	if len(stories) != 2 || stories[0].ID != 1 || stories[1].ID != 2 {
		t.Fatalf("table = %+v", stories)
	}
}

func TestTrackerMinCardinality(t *testing.T) {
	tr, log := loggedTracker(Config{MinCardinality: 3})
	turn(tr, became(1, 2))    // gated out
	turn(tr, became(4, 5, 6)) // passes
	turn(tr, ceased(1, 2))    // unknown key: ignored
	if recs := log.recs; len(recs) != 1 || !recs[0].Entities.Equal(vset.New(4, 5, 6)) {
		t.Fatalf("records = %v", recs)
	}
	if keys := tr.LiveKeys(); len(keys) != 1 || keys[0] != "4,5,6" {
		t.Fatalf("live keys = %v", keys)
	}
}

// TestTrackerCanonicalOrderWithinUpdate checks that the within-update
// resolution order is the canonical one, not arrival order: two becameds
// arriving in either order produce identical records.
func TestTrackerCanonicalOrderWithinUpdate(t *testing.T) {
	run := func(evs ...core.Event) []Record {
		tr, log := loggedTracker(Config{})
		turn(tr, became(1, 2, 3, 4, 5, 6))
		turn(tr, ceased(1, 2, 3, 4, 5, 6))
		turn(tr, evs...)
		return log.recs
	}
	a := run(became(1, 2, 3), became(4, 5, 6))
	b := run(became(4, 5, 6), became(1, 2, 3))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("arrival order changed the outcome:\n%v\nvs\n%v", a, b)
	}
	// Canonical order attaches {1,2,3} first (lower key), so it revives the
	// story and {4,5,6} splits off — deterministically. The coalesced Updated
	// record for the revived story trails the update's inline records.
	if want := []LifecycleKind{Born, Split, Updated}; !reflect.DeepEqual(kinds(a), want) {
		t.Fatalf("records = %v, want kinds %v", a, want)
	}
}

// TestTrackerRecordSinkStreams pins that every record reaches the sink as it
// is produced, in order, and that Stats counts exactly what was streamed.
func TestTrackerRecordSinkStreams(t *testing.T) {
	tr := MustTracker(Config{})
	var streamed []Record
	tr.SetRecordSink(func(r Record) { streamed = append(streamed, r) })
	turn(tr, became(1, 2, 3))
	turn(tr, became(1, 2, 3, 4))
	want := []Record{
		{Seq: 1, Kind: Born, Story: 1, Entities: vset.New(1, 2, 3)},
		{Seq: 2, Kind: Updated, Story: 1, Entities: vset.New(1, 2, 3, 4)},
	}
	if !reflect.DeepEqual(streamed, want) {
		t.Fatalf("streamed %v, want %v", streamed, want)
	}
	if st := tr.Stats(); st.Born != 1 || st.Updated != 1 || st.Merged+st.Split+st.Died != 0 {
		t.Fatalf("Stats = %+v, want born=1 updated=1", st)
	}
}

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(Config{MinJaccard: 1.5}); err == nil {
		t.Error("MinJaccard 1.5 accepted, want error")
	}
	if _, err := NewTracker(Config{MinJaccard: -0.1}); err == nil {
		t.Error("MinJaccard -0.1 accepted, want error")
	}
}

func TestLifecycleKindStrings(t *testing.T) {
	for k, want := range map[LifecycleKind]string{
		Born: "born", Updated: "updated", Merged: "merged", Split: "split", Died: "died",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := fmt.Sprint(LifecycleKind(99)); got != "LifecycleKind(99)" {
		t.Errorf("unknown kind prints %q", got)
	}
}

// TestTrackerGraceNone pins the explicit no-grace sentinel: a story with
// GraceNone dies at fadeSeq+1, the first update after its last subgraph
// ceases, while a zero Grace still selects the documented default of 200.
func TestTrackerGraceNone(t *testing.T) {
	tr, log := loggedTracker(Config{Grace: GraceNone})
	if g := tr.cfg.Grace; g != 0 {
		t.Fatalf("effective Grace = %d, want 0", g)
	}
	turn(tr, became(1, 2, 3)) // seq 1
	turn(tr, ceased(1, 2, 3)) // seq 2: fade, expiry at 3
	turn(tr)                  // seq 3: grace window already over → died
	recs := log.recs
	if len(recs) != 2 || recs[1].Kind != Died || recs[1].Seq != 3 {
		t.Fatalf("records = %v", recs)
	}
	if len(tr.Stories()) != 0 {
		t.Fatalf("table not empty: %+v", tr.Stories())
	}

	// A revival in the same update as the fade (within update seq 2) is the
	// only way back: by seq 3 the identity is gone and a re-appearing
	// subgraph is a fresh story (no split either — the snapshot window is
	// also zero-length).
	tr2, log2 := loggedTracker(Config{Grace: GraceNone})
	turn(tr2, became(1, 2, 3))
	turn(tr2, ceased(1, 2, 3))
	turn(tr2)
	turn(tr2, became(1, 2, 3))
	recs2 := log2.recs
	last := recs2[len(recs2)-1]
	if last.Kind != Born || last.Story != 2 {
		t.Fatalf("re-appearance after no-grace death = %v, want fresh Born story 2", last)
	}

	// The zero value still means "default": the story survives a short gap.
	tr3, log3 := loggedTracker(Config{})
	if g := tr3.cfg.Grace; g != 200 {
		t.Fatalf("default Grace = %d, want 200", g)
	}
	turn(tr3, became(1, 2, 3))
	turn(tr3, ceased(1, 2, 3))
	turn(tr3)
	if got := kinds(log3.recs); len(got) != 1 || got[0] != Born {
		t.Fatalf("default-grace records = %v, want story still fading", log3.recs)
	}
}

// TestTrackerQueryOwnership pins the copy-on-read contract of Stories:
// callers own the returned rows outright, so mutating them — including the
// Entities sets, which the tracker still references — must not corrupt the
// story table or the records that follow.
func TestTrackerQueryOwnership(t *testing.T) {
	tr, log := loggedTracker(Config{})
	turn(tr, became(1, 2, 3))
	turn(tr, became(1, 2, 3, 4))

	pristineTable := tr.Stories()
	table := tr.Stories()
	table[0].Entities[0] = -7
	table[0].Subgraphs = 42

	if !reflect.DeepEqual(tr.Stories(), pristineTable) {
		t.Fatalf("mutating Stories() result corrupted the table:\n got %+v\nwant %+v", tr.Stories(), pristineTable)
	}

	// The tracker must also still resolve future updates against intact
	// state: the scribbled vertex must not surface anywhere.
	turn(tr, ceased(1, 2, 3))
	for _, r := range log.recs {
		if r.Entities.Contains(-7) {
			t.Fatalf("scribbled vertex leaked into record %v", r)
		}
	}

	// OwnerOf reflects the live subgraph table.
	if id, ok := tr.OwnerOf(vset.New(1, 2, 3, 4)); !ok || id != 1 {
		t.Fatalf("OwnerOf(live) = %d, %v; want 1, true", id, ok)
	}
	if _, ok := tr.OwnerOf(vset.New(1, 2, 3)); ok {
		t.Fatalf("OwnerOf(ceased set) = true, want false")
	}
}
