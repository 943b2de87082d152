package serve

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dyndens/internal/baseline/fade"
	"dyndens/internal/core"
	"dyndens/internal/shard"
	"dyndens/internal/story"
	"dyndens/internal/stream"
	"dyndens/internal/vset"
)

// storyWorkload mirrors the story package's reference pipeline workload:
// planted stories over background chatter, parameters chosen so the stream
// exercises birth, merge, split, fading blips, and death. The update stream
// is the paper-literal fading sweep, one negative delta per tracked pair each
// epoch.
type storyWorkload struct {
	doc  stream.DocSynthConfig
	fade fade.Config
	eng  core.Config
	trk  story.Config
}

func defaultWorkload() storyWorkload {
	return storyWorkload{
		doc: stream.DocSynthConfig{
			BackgroundEntities: 30,
			Stories:            3,
			StorySize:          4,
			Docs:               600,
			Seed:               7,
			StoryFraction:      0.75,
			BackgroundSkew:     1.1,
			NoiseMentionProb:   -1,
		},
		fade: fade.Config{EpochLength: 25, Decay: 0.7, DocWeight: 1, PruneBelow: 1e-3},
		eng:  core.Config{T: 6.5, Nmax: 4},
		trk:  story.Config{MinCardinality: 3, Grace: 350},
	}
}

func (w storyWorkload) updates(tb testing.TB) []stream.Update {
	tb.Helper()
	docs, err := stream.DrainDocs(stream.MustDocSynthetic(w.doc))
	if err != nil {
		tb.Fatal(err)
	}
	return fade.Sweep(docs, w.fade).Updates
}

// validateSnapshot checks every internal-consistency invariant a published
// snapshot promises its readers. It is pure, so the concurrent-reader test
// can run it against live snapshots.
func validateSnapshot(s *Snapshot) error {
	rankedPos := make(map[story.ID]int, len(s.Ranked))
	for i, r := range s.Ranked {
		if i > 0 && rankLess(r, s.Ranked[i-1]) {
			return fmt.Errorf("epoch %d: ranking unordered at %d: %v then %v", s.Epoch, i, s.Ranked[i-1], r)
		}
		if _, dup := rankedPos[r.Story]; dup {
			return fmt.Errorf("epoch %d: story %d ranked twice", s.Epoch, r.Story)
		}
		rankedPos[r.Story] = i
		e, ok := s.Story(r.Story)
		if !ok {
			return fmt.Errorf("epoch %d: ranked story %d missing from table", s.Epoch, r.Story)
		}
		if e.Fading {
			return fmt.Errorf("epoch %d: fading story %d is ranked", s.Epoch, r.Story)
		}
		if e.Density != r.Density {
			return fmt.Errorf("epoch %d: story %d ranked at %v but entry density %v", s.Epoch, r.Story, r.Density, e.Density)
		}
	}

	live := 0
	for i, e := range s.Stories {
		id := e.ID
		if i > 0 && s.Stories[i-1].ID >= id {
			return fmt.Errorf("epoch %d: story table unordered at %d: ID %d then %d", s.Epoch, i, s.Stories[i-1].ID, id)
		}
		if got, ok := s.Story(id); !ok || got != e {
			return fmt.Errorf("epoch %d: Story(%d) does not find the table's entry", s.Epoch, id)
		}
		if e.Fading != (len(e.Subgraphs) == 0) {
			return fmt.Errorf("epoch %d: story %d fading=%v with %d subgraphs", s.Epoch, id, e.Fading, len(e.Subgraphs))
		}
		if _, ok := rankedPos[id]; ok != !e.Fading {
			return fmt.Errorf("epoch %d: story %d fading=%v, ranked=%v", s.Epoch, id, e.Fading, ok)
		}
		maxD := 0.0
		for i, sg := range e.Subgraphs {
			if i > 0 && vset.CompareKeys(sg.Set, e.Subgraphs[i-1].Set) <= 0 {
				return fmt.Errorf("epoch %d: story %d subgraphs unordered", s.Epoch, id)
			}
			if !e.Entities.ContainsAll(sg.Set) {
				return fmt.Errorf("epoch %d: story %d subgraph %v outside its entities %v", s.Epoch, id, sg.Set, e.Entities)
			}
			if sg.Density > maxD {
				maxD = sg.Density
			}
		}
		live += len(e.Subgraphs)
		if !e.Fading && e.Density != maxD {
			return fmt.Errorf("epoch %d: story %d density %v != max subgraph density %v", s.Epoch, id, e.Density, maxD)
		}
		// GET /entities/{e} finds a story by searching its entities.
		if len(e.Entities) == 0 {
			return fmt.Errorf("epoch %d: story %d has no entities", s.Epoch, id)
		}
		for i := 1; i < len(e.Entities); i++ {
			if e.Entities[i-1] >= e.Entities[i] {
				return fmt.Errorf("epoch %d: story %d entities %v not strictly ascending", s.Epoch, id, []vset.Vertex(e.Entities))
			}
		}
	}
	if live != s.LiveSubgraphs {
		return fmt.Errorf("epoch %d: entries hold %d subgraphs, LiveSubgraphs = %d", s.Epoch, live, s.LiveSubgraphs)
	}
	if keys := s.LiveKeys(); len(keys) != live || !sort.StringsAreSorted(keys) {
		return fmt.Errorf("epoch %d: LiveKeys() = %v for %d subgraphs", s.Epoch, keys, live)
	}
	return nil
}

// storiesWith returns the IDs of the snapshot's stories whose entity set holds
// v, in table order: the stories GET /entities/{v} lists.
func storiesWith(s *Snapshot, v vset.Vertex) []story.ID {
	var ids []story.ID
	for _, e := range s.Stories {
		if e.Entities.Contains(v) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// checkMatchesTracker asserts the published snapshot equals the wrapped
// tracker's story table row for row.
func checkMatchesTracker(t *testing.T, b *Builder) {
	t.Helper()
	snap := b.View().Snapshot()
	rows := b.tracker.Stories()
	if len(snap.Stories) != len(rows) {
		t.Fatalf("view has %d stories, tracker %d", len(snap.Stories), len(rows))
	}
	for i, row := range rows {
		e, ok := snap.Story(row.ID)
		if !ok {
			t.Fatalf("story %d in tracker table but not in view", row.ID)
		}
		if snap.Stories[i] != e {
			t.Fatalf("story %d is row %d of the tracker table but not of the view", row.ID, i)
		}
		if !e.Entities.Equal(row.Entities) {
			t.Errorf("story %d entities: view %v, tracker %v", row.ID, e.Entities, row.Entities)
		}
		if len(e.Subgraphs) != row.Subgraphs {
			t.Errorf("story %d subgraphs: view %d, tracker %d", row.ID, len(e.Subgraphs), row.Subgraphs)
		}
		if e.BornSeq != row.BornSeq || e.LastSeq != row.LastSeq {
			t.Errorf("story %d seqs: view (%d,%d), tracker (%d,%d)", row.ID, e.BornSeq, e.LastSeq, row.BornSeq, row.LastSeq)
		}
		if e.Fading != row.Fading {
			t.Errorf("story %d fading: view %v, tracker %v", row.ID, e.Fading, row.Fading)
		}
		for _, sg := range e.Subgraphs {
			if owner, ok := b.tracker.OwnerOf(sg.Set); !ok || owner != row.ID {
				t.Errorf("story %d serves subgraph %v, which the tracker gives to %d (%v)", row.ID, sg.Set, owner, ok)
			}
		}
		for _, v := range row.Entities {
			if ids := storiesWith(snap, v); !slices.Contains(ids, row.ID) {
				t.Errorf("entity %d of story %d: the stories with it, %v, do not include it", v, row.ID, ids)
			}
		}
	}
	if got, want := snap.LiveKeys(), b.tracker.LiveKeys(); !slices.Equal(got, want) {
		t.Errorf("view live keys %v != tracker %v", got, want)
	}
	if err := validateSnapshot(snap); err != nil {
		t.Error(err)
	}
}

// TestBuilderMatchesTracker drives the reference workload through a single
// engine with the builder in the sink position and requires the final
// published snapshot to match the tracker's own table — the builder's whole
// claim is that the view is the tracker, served.
func TestBuilderMatchesTracker(t *testing.T) {
	w := defaultWorkload()
	updates := w.updates(t)
	eng := core.MustNew(w.eng)
	b := NewBuilder(story.MustTracker(w.trk))
	eng.SetSink(b)
	for i, u := range updates {
		eng.Process(u)
		if i%53 == 0 { // mid-stream too: the view follows the tracker at every boundary
			checkMatchesTracker(t, b)
		}
	}
	b.Close(uint64(len(updates)))

	st := b.tracker.Stats()
	if st.Born == 0 || st.Merged == 0 || st.Split == 0 || st.Died == 0 {
		t.Fatalf("workload lifecycle coverage too weak: %+v", st)
	}
	if len(b.View().Snapshot().Stories) == 0 {
		t.Fatal("final view is empty")
	}
	checkMatchesTracker(t, b)
	vs := b.View().Stats()
	if vs.Publishes == 0 || vs.Boundaries == 0 || vs.Records == 0 {
		t.Fatalf("view counters did not move: %+v", vs)
	}
	if vs.LastSeq != uint64(len(updates)) {
		t.Fatalf("LastSeq = %d, want %d", vs.LastSeq, len(updates))
	}
}

// entryFingerprint flattens a snapshot to a deterministic comparable form.
func entryFingerprint(s *Snapshot) []string {
	var out []string
	for _, e := range s.Stories {
		out = append(out, fmt.Sprintf("%d|%s|%v|%v|%d|%d|%v", e.ID, e.Entities.Key(), e.Subgraphs, e.Density, e.BornSeq, e.LastSeq, e.Fading))
	}
	out = append(out, fmt.Sprintf("ranked=%v", s.Ranked))
	return out
}

// TestBuilderShardedConformance requires the builder fed the numbered stream
// of shard.New to publish the identical final snapshot and lifecycle records
// as the builder installed on a plain engine, K ∈ {1, 2, 4}.
func TestBuilderShardedConformance(t *testing.T) {
	w := defaultWorkload()
	updates := w.updates(t)

	eng := core.MustNew(w.eng)
	ref := NewBuilder(story.MustTracker(w.trk))
	refRecs := logRecords(ref)
	eng.SetSink(ref)
	for _, u := range updates {
		eng.Process(u)
	}
	ref.Close(uint64(len(updates)))
	want := entryFingerprint(ref.View().Snapshot())

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			se, err := shard.New(shard.Config{Shards: k, Engine: w.eng})
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			b := NewBuilder(story.MustTracker(w.trk))
			recs := logRecords(b)
			se.SetSeqSink(b)
			se.ProcessAll(updates)
			se.Flush()
			b.Close(uint64(len(updates)))

			checkMatchesTracker(t, b)
			if got := entryFingerprint(b.View().Snapshot()); !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d final snapshot diverges from single engine:\nsharded %v\nsingle  %v", k, got, want)
			}
			if !reflect.DeepEqual(*recs, *refRecs) {
				t.Fatalf("K=%d lifecycle records diverge", k)
			}
		})
	}
}

// TestBuilderLiveKeysMatchEngine pins the serving result-set contract
// per update: with no cardinality gate, the view's live-key universe is
// exactly the engine's output-dense set after every update, and every
// intermediate snapshot is internally consistent.
func TestBuilderLiveKeysMatchEngine(t *testing.T) {
	updates, err := stream.Synthetic(stream.SynthConfig{
		Vertices:         12,
		Updates:          400,
		Seed:             19,
		NegativeFraction: 0.35,
		MeanDelta:        1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.MustNew(core.Config{T: 2, Nmax: 4})
	b := NewBuilder(story.MustTracker(story.Config{Grace: 5}))
	eng.SetSink(b)
	checked := 0
	for i, u := range updates {
		eng.Process(u)
		snap := b.View().Snapshot()
		if err := validateSnapshot(snap); err != nil {
			t.Fatalf("after update %d: %v", i+1, err)
		}
		want := eng.OutputDenseKeys()
		if len(want) == 0 && snap.LiveSubgraphs == 0 {
			continue
		}
		if got := snap.LiveKeys(); !slices.Equal(got, want) {
			t.Fatalf("after update %d: view live keys %v != engine %v", i+1, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("stream never produced a non-empty result set")
	}
	b.Close(uint64(len(updates)))
	checkMatchesTracker(t, b)
}

// logRecords installs a record sink on b that collects every lifecycle
// record it forwards.
func logRecords(b *Builder) *[]story.Record {
	var recs []story.Record
	b.SetRecordSink(func(r story.Record) { recs = append(recs, r) })
	return &recs
}

// TestBuilderRecordForwarding checks that SetRecordSink observes every
// lifecycle record, in order, as the tracker produces them: the forwarded
// stream equals the one a bare tracker streams over the same updates, and the
// view and the tracker count it whole.
func TestBuilderRecordForwarding(t *testing.T) {
	w := defaultWorkload()
	updates := w.updates(t)
	eng := core.MustNew(w.eng)
	b := NewBuilder(story.MustTracker(w.trk))
	got := logRecords(b)
	eng.SetSink(b)
	for _, u := range updates {
		eng.Process(u)
	}
	b.Close(uint64(len(updates)))

	bare := story.MustTracker(w.trk)
	var want []story.Record
	bare.SetRecordSink(func(r story.Record) { want = append(want, r) })
	eng = core.MustNew(w.eng)
	eng.SetSink(bare)
	for _, u := range updates {
		eng.Process(u)
	}
	bare.Close(uint64(len(updates)))

	if len(want) == 0 || !reflect.DeepEqual(*got, want) {
		t.Fatalf("forwarded %d records, a bare tracker streams %d: %v", len(*got), len(want), *got)
	}
	if b.tracker.Stats() != bare.Stats() {
		t.Fatalf("wrapped tracker Stats %+v != bare %+v", b.tracker.Stats(), bare.Stats())
	}
	if n := b.View().Stats().Records; n != uint64(len(want)) {
		t.Fatalf("view counts %d records, %d were forwarded", n, len(want))
	}
}

// TestRestoredViewCountsWholeStream pins /stats continuity across a restore:
// a builder rebuilt with NewBuilderFromState from a mid-stream tracker state
// must report the records of the whole stream, not only those since the
// restore, and otherwise match the uninterrupted builder — the same records
// after the restore, the same tracker Stats and the same final snapshot.
func TestRestoredViewCountsWholeStream(t *testing.T) {
	w := defaultWorkload()
	updates := w.updates(t)
	eng := core.MustNew(w.eng)
	ref := NewBuilder(story.MustTracker(w.trk))
	refRecs := logRecords(ref)
	eng.SetSink(ref)
	for _, u := range updates {
		eng.Process(u)
	}
	ref.Close(uint64(len(updates)))

	cut := len(updates) / 2
	eng = core.MustNew(w.eng)
	before := NewBuilder(story.MustTracker(w.trk))
	eng.SetSink(before)
	for _, u := range updates[:cut] {
		eng.Process(u)
	}
	before.Sync()
	st, err := before.tracker.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := story.NewTrackerFromState(w.trk, st)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilderFromState(tr, eng.OutputDense())
	if got, want := b.View().Stats().Records, before.View().Stats().Records; got != want || got == 0 {
		t.Fatalf("restored view counts %d records, %d were produced before the restore", got, want)
	}
	recs := logRecords(b)
	eng.SetSink(b)
	for _, u := range updates[cut:] {
		eng.Process(u)
	}
	b.Close(uint64(len(updates)))

	if got, want := b.View().Stats().Records, ref.View().Stats().Records; got != want {
		t.Fatalf("/stats records = %d after the restore, uninterrupted %d", got, want)
	}
	if n := int(before.View().Stats().Records); !reflect.DeepEqual(*recs, (*refRecs)[n:]) {
		t.Fatalf("the %d records after the restore are not the uninterrupted stream's %d past the first %d", len(*recs), len(*refRecs)-n, n)
	}
	if b.tracker.Stats() != ref.tracker.Stats() {
		t.Fatalf("restored tracker Stats %+v != uninterrupted %+v", b.tracker.Stats(), ref.tracker.Stats())
	}
	if got, want := entryFingerprint(b.View().Snapshot()), entryFingerprint(ref.View().Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored final snapshot diverges:\n got %v\nwant %v", got, want)
	}
}

// TestSnapshotConsistencyUnderConcurrentReads is the issue's acceptance
// test: a live writer ingests the stream while N readers continuously load
// snapshots, assert internal consistency (ranking ordered by density,
// entries present, live keys matching the entry table), and cross-check
// each snapshot's live-key universe against the engine's OutputDenseKeys
// recorded at the same update boundary. Run under -race in CI.
func TestSnapshotConsistencyUnderConcurrentReads(t *testing.T) {
	updates, err := stream.Synthetic(stream.SynthConfig{
		Vertices:         14,
		Updates:          3000,
		Seed:             41,
		NegativeFraction: 0.35,
		MeanDelta:        1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.MustNew(core.Config{T: 2, Nmax: 4})
	b := NewBuilder(story.MustTracker(story.Config{Grace: 5}))
	eng.SetSink(b)
	view := b.View()

	// history maps update boundary → the engine's output-dense keys at that
	// boundary, recorded by the writer after each Process returns. Readers
	// only validate epochs already recorded (a freshly published epoch may
	// beat the writer's bookkeeping by a moment).
	var history sync.Map

	const readers = 4
	stop := make(chan struct{})
	errc := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampled := 0
			for {
				select {
				case <-stop:
					if sampled == 0 {
						errc <- fmt.Errorf("reader sampled no snapshots")
					}
					return
				default:
				}
				snap := view.Snapshot()
				if err := validateSnapshot(snap); err != nil {
					errc <- err
					return
				}
				if want, ok := history.Load(snap.Epoch); ok {
					if got := snap.LiveKeys(); !slices.Equal(got, want.([]string)) {
						errc <- fmt.Errorf("epoch %d: snapshot live keys %v != engine %v", snap.Epoch, got, want)
						return
					}
					sampled++
				}
			}
		}()
	}

	for i, u := range updates {
		eng.Process(u)
		seq := uint64(i + 1)
		if view.Snapshot().Epoch == seq {
			// Only boundaries that published are observable under this epoch.
			history.Store(seq, eng.OutputDenseKeys())
		}
	}
	b.Close(uint64(len(updates)))
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	checkMatchesTracker(t, b)
}
