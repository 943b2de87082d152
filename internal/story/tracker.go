package story

import (
	"cmp"
	"fmt"
	"slices"

	"dyndens/internal/core"
	"dyndens/internal/shard"
	"dyndens/internal/vset"
)

// Config tunes the story-identity rules.
type Config struct {
	// MinJaccard is the continuity threshold in (0, 1]: a newly output-dense
	// subgraph joins an existing story when the Jaccard similarity between
	// the subgraph and the story's entity set reaches it. Defaults to 0.5.
	MinJaccard float64
	// Grace is how many updates a story survives with no live subgraph
	// before it is declared dead. The fading-weight schedule routinely drops
	// a story's subgraphs below the output threshold at an epoch tick and
	// re-discovers them a few documents later; Grace spans that gap so the
	// story keeps its identity. Defaults to 200; 0 selects the default, so a
	// zero-length window ("die at the first update after fading") must be
	// requested explicitly with the GraceNone sentinel.
	Grace uint64
	// MinCardinality ignores output-dense subgraphs with fewer vertices
	// (0 or 1 disables the check). It is the application-level noise gate:
	// hot background entity pairs form legitimate 2-entity dense subgraphs
	// that a story consumer usually does not want.
	MinCardinality int
}

// GraceNone is the explicit "no grace window" sentinel for Config.Grace: a
// story whose last live subgraph ceases at update s dies at s+1. It exists
// because Config treats a zero Grace as "use the documented default of 200",
// which previously made a zero-length window unrepresentable.
const GraceNone = ^uint64(0)

func (c Config) withDefaults() Config {
	if c.MinJaccard == 0 {
		c.MinJaccard = 0.5
	}
	switch c.Grace {
	case 0:
		c.Grace = 200
	case GraceNone:
		c.Grace = 0
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MinJaccard <= 0 || c.MinJaccard > 1 {
		return fmt.Errorf("story: continuity threshold %v outside (0, 1]", c.MinJaccard)
	}
	return nil
}

// storyState is the tracker's mutable record of one story. Its live
// subgraphs are the rows of Tracker.live it owns.
type storyState struct {
	id       ID
	entities vset.Set // union of live subgraph sets; fade snapshot while fading
	subs     int      // live subgraphs owned
	bornSeq  uint64
	lastSeq  uint64
	fadeSeq  uint64 // seq at which the last live subgraph ceased; 0 = live
	snapSeq  uint64 // seq of the most recent fade snapshot; 0 = never faded
	snapshot vset.Set

	// Per-update bookkeeping, meaningful while touched: the entity set the
	// update in flight found (entity sets are never written in place, so the
	// slice header is the snapshot), and whether the story left the table.
	touched  bool
	gone     bool
	startEnt vset.Set
}

// expirySeq is the update sequence at which a fading story dies: the first
// sequence no longer inside its grace window.
func (s *storyState) expirySeq(grace uint64) uint64 { return s.fadeSeq + grace + 1 }

// Subgraph is one live output-dense subgraph of a story: its vertex set —
// which is its identity, ordered by vset.CompareKeys — and the density
// annotated on the engine event that last took it across the output
// threshold (exact as of that crossing, not continuously re-evaluated: the
// staleness the paper accepts for incremental maintenance).
type Subgraph struct {
	Set     vset.Set
	Density float64
}

// liveSub is one row of the live-subgraph table.
type liveSub struct {
	Subgraph
	owner ID
}

// Stats summarises a tracker's lifetime and current table.
type Stats struct {
	Born, Updated, Merged, Split, Died int // lifecycle records emitted
	Live, Fading                       int // current table composition
	Subgraphs                          int // live output-dense subgraphs tracked
}

// Tracker maintains persistent story identities from the engine's
// output-dense change stream. It consumes events in either of two ways:
//
//   - behind a single core.Engine: install it with Engine.SetSink (it
//     implements core.EventSink and core.UpdateBoundarySink, so the engine
//     delivers events and per-update boundaries automatically);
//   - behind a sharded deployment: install it with
//     shard.ShardedEngine.SetSeqSink (it implements shard.SeqSink and infers
//     boundaries from the merger's sequence numbers).
//
// Both modes buffer each update's events and resolve them at the boundary in
// canonical order, so the lifecycle output is a pure function of the
// per-update event sets — which the sharded merger guarantees are identical
// to the single engine's. Call Close once the stream ends to account for
// trailing event-free updates.
//
// Identity rules, applied per became-subgraph in canonical order:
//
//   - the subgraph joins the story with the most similar entity set among
//     stories at or above MinJaccard (ties to the lowest ID), reviving it if
//     it was fading;
//   - if several stories clear the threshold, the others are merged into the
//     chosen one (a bridging subgraph collapses their identities);
//   - if none does but the fade-time snapshot of some story within its grace
//     window matches, a new story is born as a split from it;
//   - otherwise a plain new story is born.
//
// A story whose last live subgraph ceases starts fading; if no subgraph
// rejoins it within Grace updates it dies at the logical expiry sequence.
//
// A subgraph is identified by its vertex set, compared with
// vset.CompareKeys and never turned into a string on the event path: the
// canonical order is the order of the sets' Key strings, so records are the
// same as if it were.
//
// The tracker is not safe for concurrent use: in sharded mode it runs on the
// merge goroutine, so query it only after the deployment is flushed.
type Tracker struct {
	cfg Config

	seq        uint64 // last resolved update sequence
	pendingSeq uint64 // sequence the buffered events belong to (EmitSeq mode)
	buf        []core.Event

	nextID  ID
	stories []*storyState // ascending ID; IDs are monotone, so a birth appends
	live    []liveSub     // every live subgraph, sorted by vset.CompareKeys

	// nextExpiry is a lower bound on the expiry sequence of every fading
	// story (0 = not known yet): no story can die before it, so an update
	// below it with no events changes nothing but the sequence.
	nextExpiry uint64

	kinds    [Died + 1]int // records emitted, by kind
	onRecord func(Record)

	// touched lists the stories the last resolved update changed, including
	// the ones it removed. The rest is scratch reused across updates.
	touched    []*storyState
	touchedIDs []ID
	cands      []*storyState
	vbuf       []vset.Vertex
}

// NewTracker builds a tracker. It returns an error for invalid
// configurations.
func NewTracker(cfg Config) (*Tracker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, nextID: 1}, nil
}

// MustTracker is NewTracker that panics on error.
func MustTracker(cfg Config) *Tracker {
	t, err := NewTracker(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// SetRecordSink installs a callback invoked for every lifecycle record as it
// is produced (the stories CLI streams its log through this). It is the only
// way records leave the tracker: it keeps no log, only the per-kind counts
// Stats reports. A sink that retains records must treat Record.Entities as
// read-only.
func (t *Tracker) SetRecordSink(fn func(Record)) { t.onRecord = fn }

// Emit implements core.EventSink: events are buffered until the engine marks
// the update boundary via EndUpdate. Subgraphs below MinCardinality never
// take part in a story, so they are dropped here.
func (t *Tracker) Emit(ev core.Event) {
	if ev.Set.Len() >= t.cfg.MinCardinality {
		t.buf = append(t.buf, ev)
	}
}

// EndUpdate implements core.UpdateBoundarySink: the buffered events are
// resolved as update t.Seq()+1. The engine invokes it once per Process call,
// no-ops included, which keeps the sequence aligned with a sharded merger's.
func (t *Tracker) EndUpdate() { t.resolve(t.seq + 1) }

// EmitSeq implements shard.SeqSink: a sequence change resolves the previous
// update's buffer. Updates that produced no events are skipped over here and
// accounted for lazily — expiry uses logical sequences, so the outcome is
// identical to the single-engine mode.
func (t *Tracker) EmitSeq(ev shard.SeqEvent) {
	if t.pendingSeq != 0 && ev.Seq != t.pendingSeq {
		t.resolve(t.pendingSeq)
	}
	t.pendingSeq = ev.Seq
	t.Emit(ev.Event)
}

// Sync resolves any buffered update so the tracker reaches a quiescent,
// exportable state, and reports whether there was one. In sharded (EmitSeq)
// mode the events of the last event-carrying update are buffered until the
// next sequence arrives; resolving them early is equivalent because the
// merger delivers all of an update's events before the deployment quiesces,
// and expiry uses logical sequences. In single-engine mode the buffer is
// always empty between updates, so Sync is a no-op there.
func (t *Tracker) Sync() bool {
	switch {
	case t.pendingSeq != 0:
		t.resolve(t.pendingSeq)
	case len(t.buf) > 0:
		t.resolve(t.seq + 1)
	default:
		return false
	}
	return true
}

// Close resolves any buffered update and accounts for trailing event-free
// updates up to finalSeq (the total number of updates processed): fading
// stories whose grace windows ended by then die. Queries are valid before
// Close, but a final table that should reflect the whole stream needs it.
func (t *Tracker) Close(finalSeq uint64) {
	synced := t.Sync()
	if finalSeq > t.seq {
		if !synced {
			t.clearTouched()
		}
		t.expireThrough(finalSeq)
		t.seq = finalSeq
	}
}

// Seq returns the last resolved update sequence.
func (t *Tracker) Seq() uint64 { return t.seq }

// resolve applies the buffered events as update s: expiries first, then the
// events in canonical order, then one coalesced Updated record per story
// whose entity set changed.
func (t *Tracker) resolve(s uint64) {
	if s <= t.seq {
		panic(fmt.Sprintf("story: update sequence went backwards: %d after %d", s, t.seq))
	}
	t.clearTouched()
	if len(t.buf) == 0 && s < t.nextExpiry {
		t.seq, t.pendingSeq = s, 0 // the steady state of a stream: O(1), no allocation
		return
	}
	t.expireThrough(s)

	slices.SortStableFunc(t.buf, core.CompareEvents)
	for _, ev := range t.buf {
		switch ev.Kind {
		case core.BecameOutputDense:
			t.became(s, ev.Set, ev.Density)
		case core.CeasedOutputDense:
			t.ceased(s, ev.Set)
		}
	}

	slices.SortFunc(t.touched, func(a, b *storyState) int { return cmp.Compare(a.id, b.id) })
	for _, st := range t.touched {
		if !st.gone && !st.entities.Equal(st.startEnt) {
			t.record(Record{Seq: s, Kind: Updated, Story: st.id, Entities: st.entities})
		}
	}

	t.seq = s
	t.pendingSeq = 0
	clear(t.buf) // the table owns the sets it kept; let the rest go
	t.buf = t.buf[:0]
}

// expireThrough kills every fading story whose grace window ended at or
// before sequence s, in deterministic (expiry, ID) order. Died records carry
// the logical expiry sequence, so the outcome does not depend on when the
// expiry is noticed (the sharded mode notices lazily).
func (t *Tracker) expireThrough(s uint64) {
	if s < t.nextExpiry {
		return
	}
	t.nextExpiry = ^uint64(0)
	dead, kept := t.cands[:0], t.stories[:0]
	for _, st := range t.stories {
		if st.fadeSeq != 0 {
			x := st.expirySeq(t.cfg.Grace)
			if x <= s {
				dead = append(dead, st)
				continue
			}
			t.nextExpiry = min(t.nextExpiry, x)
		}
		kept = append(kept, st)
	}
	clear(t.stories[len(kept):])
	t.stories = kept
	slices.SortFunc(dead, func(a, b *storyState) int {
		if ea, eb := a.expirySeq(t.cfg.Grace), b.expirySeq(t.cfg.Grace); ea != eb {
			return cmp.Compare(ea, eb)
		}
		return cmp.Compare(a.id, b.id)
	})
	for _, st := range dead {
		t.touch(st)
		st.gone = true
		t.record(Record{Seq: st.expirySeq(t.cfg.Grace), Kind: Died, Story: st.id, Entities: st.entities})
	}
	clear(dead)
	t.cands = dead[:0]
}

// clearTouched forgets the previous update's touched stories.
func (t *Tracker) clearTouched() {
	for _, st := range t.touched {
		st.touched, st.startEnt = false, nil
	}
	clear(t.touched)
	t.touched = t.touched[:0]
}

// touch notes a story's entity set the first time an update touches it, so
// resolve can emit one coalesced Updated record if the set ends up changed.
func (t *Tracker) touch(st *storyState) {
	if !st.touched {
		st.touched, st.startEnt = true, st.entities
		t.touched = append(t.touched, st)
	}
}

// findLive returns the row of the live table holding set, or where it would
// be inserted.
func (t *Tracker) findLive(set vset.Set) (int, bool) {
	return slices.BinarySearchFunc(t.live, set, func(row liveSub, set vset.Set) int {
		return vset.CompareKeys(row.Set, set)
	})
}

// findStory returns the position of a story ID in the table, or where it
// would be inserted.
func (t *Tracker) findStory(id ID) (int, bool) {
	return slices.BinarySearchFunc(t.stories, id, func(st *storyState, id ID) int { return cmp.Compare(st.id, id) })
}

// story returns the table row of a story ID, nil if there is none.
func (t *Tracker) story(id ID) *storyState {
	i, ok := t.findStory(id)
	if !ok {
		return nil
	}
	return t.stories[i]
}

// ceased removes a no-longer-output-dense subgraph from its story; the story
// starts fading when its last subgraph goes.
func (t *Tracker) ceased(s uint64, set vset.Set) {
	at, ok := t.findLive(set)
	if !ok {
		return // never attached
	}
	st := t.story(t.live[at].owner)
	t.touch(st)
	t.live = slices.Delete(t.live, at, at+1)
	st.subs--
	st.lastSeq = s
	if st.subs == 0 {
		st.fadeSeq = s
		st.snapSeq = s
		st.snapshot = st.entities
		t.nextExpiry = min(t.nextExpiry, st.expirySeq(t.cfg.Grace))
		return
	}
	// The entity set is the union of the live subgraphs, so it loses exactly
	// the vertices of set that no remaining subgraph of the story covers —
	// usually none, and then nothing is allocated.
	lost := append(t.vbuf[:0], set...)
	for i, seen := 0, 0; len(lost) > 0 && seen < st.subs; i++ {
		if row := &t.live[i]; row.owner == st.id {
			seen++
			lost = removeAll(lost, row.Set)
		}
	}
	if len(lost) > 0 {
		st.entities = st.entities.Diff(lost)
	}
	t.vbuf = lost[:0]
}

// became attaches a newly output-dense subgraph to the story table according
// to the identity rules.
func (t *Tracker) became(s uint64, set vset.Set, density float64) {
	at, dup := t.findLive(set)
	if dup {
		return // defensive: the engine never reports a live subgraph as became
	}

	// Candidates in ascending ID order; the best match is the highest
	// Jaccard, ties to the lowest (oldest) ID.
	cands := t.cands[:0]
	var best *storyState
	var bi, bu int
	for _, st := range t.stories {
		if i, u := overlap(set, st.entities); clears(i, u, t.cfg.MinJaccard) {
			cands = append(cands, st)
			if best == nil || jaccardGreater(i, u, bi, bu) {
				best, bi, bu = st, i, u
			}
		}
	}
	t.cands = cands[:0]
	if best == nil {
		t.bear(s, at, set, density) // no candidate: cands is empty
		return
	}

	t.touch(best)
	t.live = slices.Insert(t.live, at, liveSub{Subgraph{set, density}, best.id})
	if best.subs == 0 {
		best.entities = set // revived: the fade snapshot is not part of the union
	} else {
		best.absorb(set)
	}
	best.subs++
	best.fadeSeq = 0
	best.lastSeq = s

	// The subgraph bridges every other candidate above the threshold:
	// collapse them into the chosen story.
	for _, other := range cands {
		if other == best {
			continue
		}
		t.touch(other)
		if other.subs > 0 {
			for i := range t.live {
				if t.live[i].owner == other.id {
					t.live[i].owner = best.id
				}
			}
			best.subs += other.subs
			best.absorb(other.entities)
		}
		other.gone = true
		i, _ := t.findStory(other.id)
		t.stories = slices.Delete(t.stories, i, i+1)
		t.record(Record{Seq: s, Kind: Merged, Story: other.id, Other: best.id, Entities: best.entities})
	}
	clear(cands)
}

// absorb grows a live story's entity set by the vertices of one more live
// subgraph (or of a live story merged into it). The common case — nothing
// new — allocates nothing.
func (st *storyState) absorb(set vset.Set) {
	if !st.entities.ContainsAll(set) {
		st.entities = st.entities.Union(set)
	}
}

// bear creates a new story for a subgraph that matched no current story,
// checking fade-time snapshots for a split parent first. at is the
// subgraph's place in the live table.
func (t *Tracker) bear(s uint64, at int, set vset.Set, density float64) {
	var parent *storyState
	var pi, pu int
	for _, st := range t.stories {
		if st.snapSeq == 0 || s > st.snapSeq+t.cfg.Grace {
			continue
		}
		if inter, union := overlap(set, st.snapshot); clears(inter, union, t.cfg.MinJaccard) {
			if parent == nil || jaccardGreater(inter, union, pi, pu) {
				parent, pi, pu = st, inter, union
			}
		}
	}

	st := &storyState{id: t.nextID, entities: set, subs: 1, bornSeq: s, lastSeq: s}
	t.nextID++
	t.stories = append(t.stories, st)
	t.live = slices.Insert(t.live, at, liveSub{Subgraph{set, density}, st.id})
	t.touch(st) // later same-update attachments still report
	if parent != nil {
		t.record(Record{Seq: s, Kind: Split, Story: st.id, Other: parent.id, Entities: set})
	} else {
		t.record(Record{Seq: s, Kind: Born, Story: st.id, Entities: set})
	}
}

func (t *Tracker) record(r Record) {
	t.kinds[r.Kind]++
	if t.onRecord != nil {
		t.onRecord(r)
	}
}

// row is a story's table row, sharing the tracker's entity set.
func (st *storyState) row() Snapshot {
	return Snapshot{
		ID:        st.id,
		Entities:  st.entities,
		Subgraphs: st.subs,
		BornSeq:   st.bornSeq,
		LastSeq:   st.lastSeq,
		Fading:    st.fadeSeq != 0,
	}
}

// Stories returns the current story table, sorted by ID: live stories first
// have their union-of-subgraphs entity sets, fading ones their fade
// snapshots. The returned rows (including their Entities sets) are private
// copies owned by the caller.
func (t *Tracker) Stories() []Snapshot {
	out := make([]Snapshot, 0, len(t.stories))
	for _, st := range t.stories {
		r := st.row()
		r.Entities = r.Entities.Clone()
		out = append(out, r)
	}
	return out
}

// Touched returns the IDs of the stories the last resolved update (or Close)
// changed, each once: every story whose row or live subgraphs differ from
// before it, including those it removed from the table. It is how the serving
// layer follows the table at a cost proportional to what changed. The slice
// is the tracker's, valid until the next update is resolved.
func (t *Tracker) Touched() []ID {
	t.touchedIDs = t.touchedIDs[:0]
	for _, st := range t.touched {
		t.touchedIDs = append(t.touchedIDs, st.id)
	}
	return t.touchedIDs
}

// Story returns the table row of one story, false if the table has none.
// Unlike Stories it shares the row's Entities set with the tracker: the set
// is never written again, and the caller must not write it either.
func (t *Tracker) Story(id ID) (Snapshot, bool) {
	st := t.story(id)
	if st == nil {
		return Snapshot{}, false
	}
	return st.row(), true
}

// AppendLive appends the live subgraphs of a story to dst in canonical
// (vset.CompareKeys) order, sharing their sets with the tracker.
func (t *Tracker) AppendLive(dst []Subgraph, id ID) []Subgraph {
	st := t.story(id)
	if st == nil {
		return dst
	}
	for i, seen := 0, 0; seen < st.subs; i++ {
		if row := &t.live[i]; row.owner == id {
			seen++
			dst = append(dst, row.Subgraph)
		}
	}
	return dst
}

// OwnerOf returns the story currently holding the given live output-dense
// subgraph, or false if no story tracks it (it never became output-dense,
// fell below MinCardinality, or has ceased). Like every query it must not be
// called concurrently with event delivery.
func (t *Tracker) OwnerOf(set vset.Set) (ID, bool) {
	i, ok := t.findLive(set)
	if !ok {
		return 0, false
	}
	return t.live[i].owner, true
}

// SetDensity annotates a live subgraph with its density and reports whether
// the tracker holds it. Densities arrive on events and are not part of the
// persisted state, so a restored pipeline reads them back from the restored
// engine through this.
func (t *Tracker) SetDensity(set vset.Set, density float64) bool {
	i, ok := t.findLive(set)
	if ok {
		t.live[i].Density = density
	}
	return ok
}

// LiveKeys returns the canonical keys of the output-dense subgraphs the
// tracker currently attributes to stories, sorted lexicographically. With
// MinCardinality 0 this equals Engine.OutputDenseKeys after every update —
// the result-set contract the tracker builds on.
func (t *Tracker) LiveKeys() []string {
	keys := make([]string, len(t.live))
	for i, row := range t.live {
		keys[i] = row.Set.Key() // the table is in key order
	}
	return keys
}

// Stats summarises the records emitted so far and the current table.
func (t *Tracker) Stats() Stats {
	s := Stats{
		Born: t.kinds[Born], Updated: t.kinds[Updated], Merged: t.kinds[Merged],
		Split: t.kinds[Split], Died: t.kinds[Died],
		Subgraphs: len(t.live),
	}
	for _, st := range t.stories {
		if st.fadeSeq != 0 {
			s.Fading++
		} else {
			s.Live++
		}
	}
	return s
}

// removeAll removes the vertices of drop from the sorted slice s in place.
func removeAll(s []vset.Vertex, drop vset.Set) []vset.Vertex {
	w, j := 0, 0
	for _, v := range s {
		for j < len(drop) && drop[j] < v {
			j++
		}
		if j == len(drop) || drop[j] != v {
			s[w] = v
			w++
		}
	}
	return s[:w]
}

// overlap returns |a ∩ b| and |a ∪ b| by merge scan.
func overlap(a, b vset.Set) (inter, union int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter, len(a) + len(b) - inter
}

// clears reports whether inter/union ≥ theta (union 0 never clears).
func clears(inter, union int, theta float64) bool {
	return union > 0 && float64(inter) >= theta*float64(union)
}

// jaccardGreater reports i1/u1 > i2/u2 by cross-multiplication, avoiding
// float division in the tie-breaking path.
func jaccardGreater(i1, u1, i2, u2 int) bool {
	return i1*u2 > i2*u1
}
