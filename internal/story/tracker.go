package story

import (
	"fmt"
	"sort"

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

// storyState is the tracker's mutable record of one story.
type storyState struct {
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
func (s *storyState) expirySeq(grace uint64) uint64 { return s.fadeSeq + grace + 1 }

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
// The tracker is not safe for concurrent use: in sharded mode it runs on the
// merge goroutine, so query it only after the deployment is flushed.
type Tracker struct {
	cfg Config

	seq        uint64 // last resolved update sequence
	pendingSeq uint64 // sequence the buffered events belong to (EmitSeq mode)
	buf        []core.Event

	nextID  ID
	stories map[ID]*storyState
	byKey   map[string]ID // live subgraph key → owning story

	// nextExpiry is a lower bound on the expiry sequence of every fading
	// story (0 = not known yet): no story can die before it, so an update
	// below it with no events changes nothing but the sequence.
	nextExpiry uint64

	records  []Record
	onRecord func(Record)

	startEnt map[ID]string // per-resolve: entity key when first touched
}

// NewTracker builds a tracker. It returns an error for invalid
// configurations.
func NewTracker(cfg Config) (*Tracker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{
		cfg:      cfg,
		nextID:   1,
		stories:  make(map[ID]*storyState),
		byKey:    make(map[string]ID),
		startEnt: make(map[ID]string),
	}, nil
}

// MustTracker is NewTracker that panics on error.
func MustTracker(cfg Config) *Tracker {
	t, err := NewTracker(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the effective configuration (with defaults applied).
func (t *Tracker) Config() Config { return t.cfg }

// SetRecordSink installs a callback invoked for every lifecycle record as it
// is produced (the stories CLI streams its log through this). Records are
// also retained and available via Records.
func (t *Tracker) SetRecordSink(fn func(Record)) { t.onRecord = fn }

// Emit implements core.EventSink: events are buffered until the engine marks
// the update boundary via EndUpdate.
func (t *Tracker) Emit(ev core.Event) { t.buf = append(t.buf, ev) }

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
	t.buf = append(t.buf, ev.Event)
}

// Close resolves any buffered update and accounts for trailing event-free
// updates up to finalSeq (the total number of updates processed): fading
// stories whose grace windows ended by then die. Queries are valid before
// Close, but a final table that should reflect the whole stream needs it.
func (t *Tracker) Close(finalSeq uint64) {
	switch {
	case t.pendingSeq != 0:
		t.resolve(t.pendingSeq)
	case len(t.buf) > 0:
		t.resolve(t.seq + 1)
	}
	if finalSeq > t.seq {
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
	if len(t.buf) == 0 && s < t.nextExpiry {
		t.seq, t.pendingSeq = s, 0 // the steady state of a stream: O(1), no allocation
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

	for _, id := range sortedIDs(t.startEnt) {
		st, ok := t.stories[id]
		if !ok {
			continue // merged away within this update
		}
		if st.entities.Key() != t.startEnt[id] {
			t.record(Record{Seq: s, Kind: Updated, Story: id, Entities: st.entities})
		}
	}

	t.seq = s
	t.pendingSeq = 0
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
	var dead []*storyState
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
func (t *Tracker) touch(st *storyState) {
	if _, ok := t.startEnt[st.id]; !ok {
		t.startEnt[st.id] = st.entities.Key()
	}
}

// ceased removes a no-longer-output-dense subgraph from its story; the story
// starts fading when its last subgraph goes.
func (t *Tracker) ceased(s uint64, set vset.Set) {
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
		st.entities = unionOf(st.live)
	}
}

// became attaches a newly output-dense subgraph to the story table according
// to the identity rules.
func (t *Tracker) became(s uint64, set vset.Set) {
	k := set.Key()
	if _, dup := t.byKey[k]; dup {
		return // defensive: the engine never reports a live subgraph as became
	}

	var cands []*storyState
	for _, id := range storyIDs(t.stories) {
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
	best.entities = unionOf(best.live)
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
		best.entities = unionOf(best.live)
		delete(t.stories, other.id)
		delete(t.startEnt, other.id)
		t.record(Record{Seq: s, Kind: Merged, Story: other.id, Other: best.id, Entities: best.entities})
	}
}

// bear creates a new story for a subgraph that matched no current story,
// checking fade-time snapshots for a split parent first.
func (t *Tracker) bear(s uint64, k string, set vset.Set) {
	var parent *storyState
	var pi, pu int
	for _, id := range storyIDs(t.stories) {
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
	st := &storyState{
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

func (t *Tracker) record(r Record) {
	t.records = append(t.records, r)
	if t.onRecord != nil {
		t.onRecord(r)
	}
}

// Records returns every lifecycle record produced so far, in order. The
// slice and the Entities sets it carries are copied out of the tracker's
// log, so they are the caller's to keep or mutate: nothing a caller does to
// the returned value can corrupt lifecycle history, and the tracker's later
// progress never changes a previously returned slice. (Records delivered
// through SetRecordSink are not copied — a sink that retains them must treat
// Record.Entities as read-only.)
func (t *Tracker) Records() []Record {
	out := make([]Record, len(t.records))
	copy(out, t.records)
	for i := range out {
		out[i].Entities = out[i].Entities.Clone()
	}
	return out
}

// Stories returns the current story table, sorted by ID: live stories first
// have their union-of-subgraphs entity sets, fading ones their fade
// snapshots. Like Records, the returned rows (including their Entities sets)
// are private copies owned by the caller.
func (t *Tracker) Stories() []Snapshot {
	out := make([]Snapshot, 0, len(t.stories))
	for _, id := range storyIDs(t.stories) {
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

// OwnerOf returns the story currently holding the live output-dense subgraph
// with the given canonical key (vset.Set.Key), or false if no story tracks
// it (it never became output-dense, fell below MinCardinality, or has
// ceased). It is the ownership hook the serving layer uses to attribute
// engine events to stories at update boundaries; like every query it must
// not be called concurrently with event delivery.
func (t *Tracker) OwnerOf(key string) (ID, bool) {
	id, ok := t.byKey[key]
	return id, ok
}

// LiveKeys returns the canonical keys of the output-dense subgraphs the
// tracker currently attributes to stories, sorted lexicographically. With
// MinCardinality 0 this equals Engine.OutputDenseKeys after every update —
// the result-set contract the tracker builds on.
func (t *Tracker) LiveKeys() []string {
	keys := make([]string, 0, len(t.byKey))
	for k := range t.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stats summarises the records and the current table.
func (t *Tracker) Stats() Stats {
	var s Stats
	for _, r := range t.records {
		switch r.Kind {
		case Born:
			s.Born++
		case Updated:
			s.Updated++
		case Merged:
			s.Merged++
		case Split:
			s.Split++
		case Died:
			s.Died++
		}
	}
	for _, st := range t.stories {
		if st.fadeSeq != 0 {
			s.Fading++
		} else {
			s.Live++
		}
		s.Subgraphs += len(st.live)
	}
	return s
}

// unionOf returns the union of the given subgraph sets (deterministic: union
// is order-independent).
func unionOf(live map[string]vset.Set) vset.Set {
	var u vset.Set
	for _, s := range live {
		u = u.Union(s)
	}
	return u
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

// storyIDs returns the story IDs in ascending order.
func storyIDs(m map[ID]*storyState) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sortedIDs returns the map's keys in ascending order.
func sortedIDs(m map[ID]string) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
