package story

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/vset"
)

// This file holds refTracker, a frozen copy of the tracker as it was while a
// subgraph's identity was its Key string — story tables in maps, keys built
// in the sort comparator, the entity union recomputed from scratch — and the
// differential test that holds the set-identity tracker to it. The copy is
// the reference: do not optimise it.

type refTracker struct {
	cfg Config

	seq uint64
	buf []core.Event

	nextID  ID
	stories map[ID]*refStory
	byKey   map[string]ID

	nextExpiry uint64

	records  []Record
	startEnt map[ID]string
}

func newRefTracker(cfg Config) *refTracker {
	return &refTracker{
		cfg:      cfg.withDefaults(),
		nextID:   1,
		stories:  make(map[ID]*refStory),
		byKey:    make(map[string]ID),
		startEnt: make(map[ID]string),
	}
}

func (t *refTracker) Emit(ev core.Event) { t.buf = append(t.buf, ev) }
func (t *refTracker) EndUpdate()         { t.resolve(t.seq + 1) }

func (t *refTracker) record(r Record) { t.records = append(t.records, r) }

// refStory is the tracker's mutable record of one story.
type refStory struct {
	id       ID
	entities vset.Set            // union of live subgraph sets; fade snapshot while fading
	live     map[string]vset.Set // currently output-dense subgraphs, by canonical key
	bornSeq  uint64
	lastSeq  uint64
	fadeSeq  uint64 // seq at which the last live subgraph ceased; 0 = live
	snapSeq  uint64 // seq of the most recent fade snapshot; 0 = never faded
	snapshot vset.Set
}

// expirySeq is the update sequence at which a fading story dies: the first
// sequence no longer inside its grace window.
func (s *refStory) expirySeq(grace uint64) uint64 { return s.fadeSeq + grace + 1 }

// resolve applies the buffered events as update s: expiries first, then the
// events in canonical order, then one coalesced Updated record per story
// whose entity set changed.
func (t *refTracker) resolve(s uint64) {
	if s <= t.seq {
		panic(fmt.Sprintf("story: update sequence went backwards: %d after %d", s, t.seq))
	}
	if len(t.buf) == 0 && s < t.nextExpiry {
		t.seq = s
		return
	}
	t.expireThrough(s)

	events := t.buf
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Kind != events[j].Kind {
			return events[i].Kind < events[j].Kind
		}
		return events[i].Set.Key() < events[j].Set.Key()
	})
	clear(t.startEnt)
	for _, ev := range events {
		if ev.Set.Len() < t.cfg.MinCardinality {
			continue
		}
		switch ev.Kind {
		case core.BecameOutputDense:
			t.became(s, ev.Set)
		case core.CeasedOutputDense:
			t.ceased(s, ev.Set)
		}
	}

	for _, id := range refSortedIDs(t.startEnt) {
		st, ok := t.stories[id]
		if !ok {
			continue // merged away within this update
		}
		if st.entities.Key() != t.startEnt[id] {
			t.record(Record{Seq: s, Kind: Updated, Story: id, Entities: st.entities})
		}
	}

	t.seq = s
	t.buf = t.buf[:0]
}

// expireThrough kills every fading story whose grace window ended at or
// before sequence s, in deterministic (expiry, ID) order. Died records carry
// the logical expiry sequence, so the outcome does not depend on when the
// expiry is noticed (the sharded mode notices lazily).
func (t *refTracker) expireThrough(s uint64) {
	if s < t.nextExpiry {
		return
	}
	var dead []*refStory
	t.nextExpiry = ^uint64(0)
	for _, st := range t.stories {
		if st.fadeSeq == 0 {
			continue
		}
		if x := st.expirySeq(t.cfg.Grace); x <= s {
			dead = append(dead, st)
		} else {
			t.nextExpiry = min(t.nextExpiry, x)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		ei, ej := dead[i].expirySeq(t.cfg.Grace), dead[j].expirySeq(t.cfg.Grace)
		if ei != ej {
			return ei < ej
		}
		return dead[i].id < dead[j].id
	})
	for _, st := range dead {
		delete(t.stories, st.id)
		t.record(Record{Seq: st.expirySeq(t.cfg.Grace), Kind: Died, Story: st.id, Entities: st.entities})
	}
}

// touch records a story's entity set the first time an update touches it, so
// resolve can emit one coalesced Updated record if the set ends up changed.
func (t *refTracker) touch(st *refStory) {
	if _, ok := t.startEnt[st.id]; !ok {
		t.startEnt[st.id] = st.entities.Key()
	}
}

// ceased removes a no-longer-output-dense subgraph from its story; the story
// starts fading when its last subgraph goes.
func (t *refTracker) ceased(s uint64, set vset.Set) {
	k := set.Key()
	id, ok := t.byKey[k]
	if !ok {
		return // never attached (e.g. below MinCardinality at became time)
	}
	st := t.stories[id]
	t.touch(st)
	delete(t.byKey, k)
	delete(st.live, k)
	st.lastSeq = s
	if len(st.live) == 0 {
		st.fadeSeq = s
		st.snapSeq = s
		st.snapshot = st.entities
		t.nextExpiry = min(t.nextExpiry, st.expirySeq(t.cfg.Grace))
	} else {
		st.entities = refUnionOf(st.live)
	}
}

// became attaches a newly output-dense subgraph to the story table according
// to the identity rules.
func (t *refTracker) became(s uint64, set vset.Set) {
	k := set.Key()
	if _, dup := t.byKey[k]; dup {
		return // defensive: the engine never reports a live subgraph as became
	}

	var cands []*refStory
	for _, id := range refStoryIDs(t.stories) {
		st := t.stories[id]
		if inter, union := overlap(set, st.entities); clears(inter, union, t.cfg.MinJaccard) {
			cands = append(cands, st)
		}
	}
	if len(cands) == 0 {
		t.bear(s, k, set)
		return
	}

	// Best match: highest Jaccard, ties to the lowest (oldest) ID. cands is
	// already in ascending ID order.
	best := cands[0]
	bi, bu := overlap(set, best.entities)
	for _, st := range cands[1:] {
		if i, u := overlap(set, st.entities); jaccardGreater(i, u, bi, bu) {
			best, bi, bu = st, i, u
		}
	}

	t.touch(best)
	best.live[k] = set
	t.byKey[k] = best.id
	best.fadeSeq = 0
	best.entities = refUnionOf(best.live)
	best.lastSeq = s

	// The subgraph bridges every other candidate above the threshold:
	// collapse them into the chosen story.
	for _, other := range cands {
		if other == best {
			continue
		}
		t.touch(other)
		for k2, s2 := range other.live {
			best.live[k2] = s2
			t.byKey[k2] = best.id
		}
		best.entities = refUnionOf(best.live)
		delete(t.stories, other.id)
		delete(t.startEnt, other.id)
		t.record(Record{Seq: s, Kind: Merged, Story: other.id, Other: best.id, Entities: best.entities})
	}
}

// bear creates a new story for a subgraph that matched no current story,
// checking fade-time snapshots for a split parent first.
func (t *refTracker) bear(s uint64, k string, set vset.Set) {
	var parent *refStory
	var pi, pu int
	for _, id := range refStoryIDs(t.stories) {
		st := t.stories[id]
		if st.snapSeq == 0 || s > st.snapSeq+t.cfg.Grace {
			continue
		}
		if inter, union := overlap(set, st.snapshot); clears(inter, union, t.cfg.MinJaccard) {
			if parent == nil || jaccardGreater(inter, union, pi, pu) {
				parent, pi, pu = st, inter, union
			}
		}
	}

	id := t.nextID
	t.nextID++
	st := &refStory{
		id:       id,
		entities: set,
		live:     map[string]vset.Set{k: set},
		bornSeq:  s,
		lastSeq:  s,
	}
	t.stories[id] = st
	t.byKey[k] = id
	t.startEnt[id] = set.Key() // later same-update attachments still report
	if parent != nil {
		t.record(Record{Seq: s, Kind: Split, Story: id, Other: parent.id, Entities: set})
	} else {
		t.record(Record{Seq: s, Kind: Born, Story: id, Entities: set})
	}
}

// Stories returns the current story table, sorted by ID: live stories first
// have their union-of-subgraphs entity sets, fading ones their fade
// snapshots. Like Records, the returned rows (including their Entities sets)
// are private copies owned by the caller.
func (t *refTracker) Stories() []Snapshot {
	out := make([]Snapshot, 0, len(t.stories))
	for _, id := range refStoryIDs(t.stories) {
		st := t.stories[id]
		out = append(out, Snapshot{
			ID:        st.id,
			Entities:  st.entities.Clone(),
			Subgraphs: len(st.live),
			BornSeq:   st.bornSeq,
			LastSeq:   st.lastSeq,
			Fading:    st.fadeSeq != 0,
		})
	}
	return out
}

// LiveKeys returns the canonical keys of the output-dense subgraphs the
// tracker currently attributes to stories, sorted lexicographically. With
// MinCardinality 0 this equals Engine.OutputDenseKeys after every update —
// the result-set contract the tracker builds on.
func (t *refTracker) LiveKeys() []string {
	keys := make([]string, 0, len(t.byKey))
	for k := range t.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refUnionOf returns the union of the given subgraph sets (deterministic: union
// is order-independent).
func refUnionOf(live map[string]vset.Set) vset.Set {
	var u vset.Set
	for _, s := range live {
		u = u.Union(s)
	}
	return u
}

// refStoryIDs returns the story IDs in ascending order.
func refStoryIDs(m map[ID]*refStory) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// refSortedIDs returns the map's keys in ascending order.
func refSortedIDs(m map[ID]string) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestTrackerMatchesKeyStringReference drives the tracker and the frozen
// map-and-string reference with the same planted document stream — births,
// merges, splits, fading blips at every decay tick, deaths — and requires
// equal records, story tables and live-key sets after every one of its 5000
// updates.
func TestTrackerMatchesKeyStringReference(t *testing.T) {
	w := defaultWorkload()
	updates, _ := w.updates(t)
	if len(updates) < 5000 {
		t.Fatalf("workload has %d updates, want at least 5000", len(updates))
	}
	updates = updates[:5000]

	eng := core.MustNew(w.eng)
	tr, ref := MustTracker(w.trk), newRefTracker(w.trk)
	log := logRecords(tr)
	eng.SetSink(core.MultiSink{tr, ref})
	for i, u := range updates {
		eng.Process(u)
		if !reflect.DeepEqual(log.recs, ref.records) {
			t.Fatalf("update %d: records diverge: %s", i+1, firstDiff(log.recs, ref.records))
		}
		if got, want := tr.Stories(), ref.Stories(); !reflect.DeepEqual(got, want) {
			t.Fatalf("update %d: story tables diverge:\n got %+v\nwant %+v", i+1, got, want)
		}
		if got, want := tr.LiveKeys(), ref.LiveKeys(); !slices.Equal(got, want) {
			t.Fatalf("update %d: live keys diverge:\n got %v\nwant %v", i+1, got, want)
		}
	}
	st := tr.Stats()
	if st.Born == 0 || st.Updated == 0 || st.Merged == 0 || st.Split == 0 || st.Died == 0 {
		t.Fatalf("stream too tame to compare anything: %+v", st)
	}
	if st.Born+st.Updated+st.Merged+st.Split+st.Died != len(ref.records) {
		t.Fatalf("Stats counts %+v, the log holds %d records", st, len(ref.records))
	}
}
