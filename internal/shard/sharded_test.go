package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/core"
)

// testStream generates a reproducible random update stream without importing
// internal/stream (which imports this package).
func testStream(seed int64, vertices, n int, negFrac float64) []core.Update {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Update, 0, n)
	for i := 0; i < n; i++ {
		a := core.Vertex(rng.Intn(vertices))
		b := core.Vertex(rng.Intn(vertices))
		for b == a {
			b = core.Vertex(rng.Intn(vertices))
		}
		delta := rng.ExpFloat64() * 1.5
		if rng.Float64() < negFrac {
			delta = -delta
		}
		out = append(out, core.Update{A: a, B: b, Delta: delta})
	}
	return out
}

var testEngineCfg = core.Config{T: 2, Nmax: 4}

// mustNew is New for configurations the test knows to be valid.
func mustNew(t testing.TB, cfg Config) *ShardedEngine {
	t.Helper()
	se, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// seqCollector records the numbered stream.
type seqCollector struct {
	events []SeqEvent
}

func (c *seqCollector) EmitSeq(ev SeqEvent) { c.events = append(c.events, ev) }

// eventKey is the canonical comparison form of an event.
func eventKey(ev core.Event) string {
	return fmt.Sprintf("%d|%s", ev.Kind, ev.Set.Key())
}

// perSeqKeys groups a numbered stream by sequence number into sorted
// canonical keys per unit.
func perSeqKeys(events []SeqEvent) map[uint64][]string {
	out := make(map[uint64][]string)
	for _, ev := range events {
		out[ev.Seq] = append(out[ev.Seq], eventKey(ev.Event))
	}
	for _, keys := range out {
		slices.Sort(keys)
	}
	return out
}

// unitCollector is a plain engine's sink that groups its events by unit, the
// units numbered from 1 at each EndUpdate: the reference for the numbers
// ShardedEngine puts on its events.
type unitCollector struct {
	unit   uint64
	perSeq map[uint64][]string
	events uint64
}

func newUnitCollector() *unitCollector {
	return &unitCollector{unit: 1, perSeq: make(map[uint64][]string)}
}

func (c *unitCollector) Emit(ev core.Event) {
	c.perSeq[c.unit] = append(c.perSeq[c.unit], eventKey(ev))
	c.events++
}

func (c *unitCollector) EndUpdate() {
	slices.Sort(c.perSeq[c.unit])
	c.unit++
}

// requireSamePerSeq asserts two per-unit streams are equal unit for unit.
func requireSamePerSeq(t *testing.T, label string, got, want map[uint64][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: numbered stream covers %d event-bearing units, reference %d", label, len(got), len(want))
	}
	for seq, w := range want {
		if !slices.Equal(got[seq], w) {
			t.Fatalf("%s: unit %d: %v != reference %v", label, seq, got[seq], w)
		}
	}
}

// TestNewValidation: an invalid engine configuration is refused. Shards is
// accepted and ignored, so any value builds the one engine.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Shards: 2, Engine: core.Config{T: -1, Nmax: 4}}); err == nil {
		t.Error("want error for invalid engine config")
	}
	for _, k := range []int{0, 1, 8} {
		se, err := New(Config{Shards: k, Engine: testEngineCfg})
		if err != nil {
			t.Fatalf("Shards=%d: %v", k, err)
		}
		if se.Engine() == nil {
			t.Fatalf("Shards=%d: no engine", k)
		}
	}
}

// TestSingleShardMatchesEngine: the numbered stream must match a plain
// engine's output update for update, nothing deduplicated, every event
// counted as delivered.
func TestSingleShardMatchesEngine(t *testing.T) {
	updates := testStream(1, 10, 500, 0.3)

	ref := core.MustNew(testEngineCfg)
	var sink core.CollectorSink
	ref.SetSink(&sink)
	wantPerSeq := make(map[uint64][]string)
	for i, u := range updates {
		ref.Process(u)
		for _, ev := range sink.Take() {
			seq := uint64(i + 1)
			wantPerSeq[seq] = append(wantPerSeq[seq], eventKey(ev))
		}
	}
	for _, keys := range wantPerSeq {
		slices.Sort(keys)
	}

	se := mustNew(t, Config{Shards: 1, Engine: testEngineCfg})
	defer se.Close()
	var col seqCollector
	se.SetSeqSink(&col)
	se.ProcessAll(updates)
	se.Flush()

	requireSamePerSeq(t, "K=1", perSeqKeys(col.events), wantPerSeq)
	st := se.Stats()
	if st.DedupedEvents != 0 {
		t.Fatalf("K=1 deduplicated %d events, want 0", st.DedupedEvents)
	}
	if st.MergedEvents != ref.Stats().Events {
		t.Fatalf("merged %d events, reference emitted %d", st.MergedEvents, ref.Stats().Events)
	}
	if got, want := se.Engine().OutputDenseKeys(), ref.OutputDenseKeys(); !slices.Equal(got, want) {
		t.Fatalf("tracked set %v != reference %v", got, want)
	}
}

// TestMergedStreamDeterministic: two runs over the same stream must produce
// identical numbered streams (same events, same order, same sequence
// numbers), however the stream is split across ProcessAll calls.
func TestMergedStreamDeterministic(t *testing.T) {
	updates := testStream(2, 12, 600, 0.3)
	run := func(chunk int) []SeqEvent {
		se := mustNew(t, Config{Shards: 4, Engine: testEngineCfg})
		defer se.Close()
		var col seqCollector
		se.SetSeqSink(&col)
		for i := 0; i < len(updates); i += chunk {
			se.ProcessAll(updates[i:min(i+chunk, len(updates))])
		}
		se.Flush()
		return col.events
	}
	a := run(64)
	b := run(64)
	c := run(17) // a different split must not change the numbered stream
	if len(a) == 0 {
		t.Fatal("stream emitted no events; fixture too weak")
	}
	for name, other := range map[string][]SeqEvent{"same-split": b, "split=17": c} {
		if len(a) != len(other) {
			t.Fatalf("%s: stream lengths differ: %d vs %d", name, len(a), len(other))
		}
		for i := range a {
			if a[i].Seq != other[i].Seq || eventKey(a[i].Event) != eventKey(other[i].Event) {
				t.Fatalf("%s: streams diverge at %d: seq %d %s vs seq %d %s",
					name, i, a[i].Seq, eventKey(a[i].Event), other[i].Seq, eventKey(other[i].Event))
			}
		}
	}
}

// TestShardedMatchesSingleEngineResultSet: for every Shards value bench/par.go
// may pass, the result set must equal the single engine's explicit
// output-dense set, and every event must be counted as delivered.
func TestShardedMatchesSingleEngineResultSet(t *testing.T) {
	updates := testStream(3, 10, 500, 0.35)
	ref := core.MustNew(testEngineCfg)
	var refSink core.CollectorSink
	ref.SetSink(&refSink)
	for _, u := range updates {
		ref.Process(u)
	}
	refEvents := refSink.Len()
	want := ref.OutputDenseKeys()
	for _, k := range []int{1, 2, 3, 4, 8} {
		se := mustNew(t, Config{Shards: k, Engine: testEngineCfg})
		se.ProcessAll(updates)
		got := se.Engine().OutputDenseKeys()
		st := se.Stats()
		if !slices.Equal(got, want) {
			t.Errorf("K=%d: tracked set %v != single engine %v", k, got, want)
		}
		if int(st.MergedEvents) != refEvents {
			t.Errorf("K=%d: merged %d events, single engine emitted %d (deduped=%d)",
				k, st.MergedEvents, refEvents, st.DedupedEvents)
		}
		se.Close()
	}
}

func TestCloseIdempotentAndFlushEmpty(t *testing.T) {
	se := mustNew(t, Config{Shards: 2, Engine: testEngineCfg})
	se.Flush() // no updates: must not hang
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessAfterClosePanics(t *testing.T) {
	se := mustNew(t, Config{Shards: 2, Engine: testEngineCfg})
	se.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("ProcessAll after Close did not panic")
		}
	}()
	se.ProcessAll([]core.Update{{A: 1, B: 2, Delta: 1}})
}

// TestStatsAggregation pins the accounting Stats reports for the one engine:
// its own counters, every event delivered once, no worker loads. "mirror"
// feeds plain per-update units; "scoped" mixes in threshold units, which
// number and deliver their events like any other unit.
func TestStatsAggregation(t *testing.T) {
	updates := testStream(4, 10, 250, 0.25)
	const k = 3

	check := func(t *testing.T, se *ShardedEngine, col *seqCollector) {
		t.Helper()
		st := se.Stats()
		if st.Aggregate != se.Engine().Stats() {
			t.Errorf("aggregate %+v != the engine's %+v", st.Aggregate, se.Engine().Stats())
		}
		if st.Aggregate.Updates != uint64(len(updates)) {
			t.Errorf("aggregate updates = %d, want %d", st.Aggregate.Updates, len(updates))
		}
		if len(st.Loads) != 0 || st.DedupedEvents != 0 {
			t.Errorf("loads %v, deduped %d: want none", st.Loads, st.DedupedEvents)
		}
		if st.MergedEvents != st.Aggregate.Events || st.MergedEvents != uint64(len(col.events)) {
			t.Errorf("merged %d events, engine emitted %d, sink saw %d", st.MergedEvents, st.Aggregate.Events, len(col.events))
		}
		if st.MergedEvents == 0 {
			t.Error("no events; fixture too weak")
		}
		if f := st.MeanDeliveryFraction(); f != 1 {
			t.Errorf("mean delivery fraction %v, want 1", f)
		}
	}

	t.Run("mirror", func(t *testing.T) {
		se := mustNew(t, Config{Shards: k, Engine: testEngineCfg})
		defer se.Close()
		var col seqCollector
		se.SetSeqSink(&col)
		se.ProcessAll(updates)
		check(t, se, &col)
		if last := col.events[len(col.events)-1].Seq; last > uint64(len(updates)) {
			t.Errorf("last event numbered %d past %d units", last, len(updates))
		}
	})

	t.Run("scoped", func(t *testing.T) {
		se := mustNew(t, Config{Shards: k, Engine: testEngineCfg})
		defer se.Close()
		var col seqCollector
		se.SetSeqSink(&col)
		units := 0
		for i := 0; i < len(updates); i += 50 {
			se.ProcessAll(updates[i : i+25])
			if err := se.ProcessThresholdBatch(0.9, updates[i+25:i+50]); err != nil {
				t.Fatal(err)
			}
			units += 26
		}
		check(t, se, &col)
		if st := se.Stats(); st.Aggregate.ThresholdTicks != uint64(len(updates)/50) {
			t.Errorf("%d threshold units, want %d", st.Aggregate.ThresholdTicks, len(updates)/50)
		}
		if last := col.events[len(col.events)-1].Seq; last > uint64(units) {
			t.Errorf("last event numbered %d past %d units", last, units)
		}
	})
}

// batchPartition splits a stream into random batches (sizes 0–8, empty
// batches included) with a seeded rng.
func batchPartition(seed int64, updates []core.Update) [][]core.Update {
	rng := rand.New(rand.NewSource(seed))
	var batches [][]core.Update
	for pos := 0; pos <= len(updates); {
		n := rng.Intn(9)
		if pos+n > len(updates) {
			n = len(updates) - pos
		}
		batches = append(batches, updates[pos:pos+n])
		pos += n
		if n == 0 && pos == len(updates) {
			break
		}
	}
	return batches
}

// TestProcessBatchMatchesSingleBatchedEngine: batch units driven through the
// engine behind the names (as the replay driver drives them) must be numbered
// one per batch, empty batches included, with the events of a plain engine
// fed the same batches, at K ∈ {1, 2, 4}.
func TestProcessBatchMatchesSingleBatchedEngine(t *testing.T) {
	updates := testStream(6, 10, 600, 0.35)
	batches := batchPartition(61, updates)

	ref := core.MustNew(testEngineCfg)
	refCol := newUnitCollector()
	ref.SetSink(refCol)
	for _, b := range batches {
		ref.ProcessBatch(b)
	}
	if refCol.events == 0 {
		t.Fatal("batched reference emitted no events; fixture too weak")
	}

	for _, k := range []int{1, 2, 4} {
		se := mustNew(t, Config{Shards: k, Engine: testEngineCfg})
		var col seqCollector
		se.SetSeqSink(&col)
		for _, b := range batches {
			se.Engine().ProcessBatch(b)
		}
		se.Flush()
		requireSamePerSeq(t, fmt.Sprintf("K=%d", k), perSeqKeys(col.events), refCol.perSeq)
		if got, want := se.Engine().OutputDenseKeys(), ref.OutputDenseKeys(); !slices.Equal(got, want) {
			t.Fatalf("K=%d: tracked set %v != reference %v", k, got, want)
		}
		st := se.Stats()
		if st.MergedEvents != refCol.events {
			t.Fatalf("K=%d: merged %d events, reference emitted %d", k, st.MergedEvents, refCol.events)
		}
		if st.Aggregate.Updates != uint64(len(updates)) {
			t.Fatalf("K=%d: %d updates, want %d", k, st.Aggregate.Updates, len(updates))
		}
		se.Close()
	}
}

// TestProcessBatchInterleavesWithProcess: mixing per-update units and batch
// units must keep the sequence numbers and the result set coherent.
func TestProcessBatchInterleavesWithProcess(t *testing.T) {
	updates := testStream(7, 10, 300, 0.3)
	ref := core.MustNew(testEngineCfg)
	refCol := newUnitCollector()
	ref.SetSink(refCol)
	se := mustNew(t, Config{Shards: 2, Engine: testEngineCfg})
	defer se.Close()
	var col seqCollector
	se.SetSeqSink(&col)

	for pos := 0; pos < len(updates); {
		end := min(pos+25, len(updates))
		if (pos/25)%2 == 0 { // alternate runs of per-update and batched feeding
			for _, u := range updates[pos:end] {
				ref.Process(u)
			}
			se.ProcessAll(updates[pos:end])
		} else {
			ref.ProcessBatch(updates[pos:end])
			se.Engine().ProcessBatch(updates[pos:end])
		}
		pos = end
	}
	se.Engine().ProcessBatch(nil) // trailing empty tick must be harmless
	ref.ProcessBatch(nil)
	requireSamePerSeq(t, "mixed", perSeqKeys(col.events), refCol.perSeq)
	if got, want := se.Engine().OutputDenseKeys(), ref.OutputDenseKeys(); !slices.Equal(got, want) {
		t.Fatalf("mixed feeding diverged: %v != %v", got, want)
	}
	if got := se.Stats().Aggregate.Updates; got != uint64(len(updates)) {
		t.Fatalf("%d updates, want %d", got, len(updates))
	}
}
