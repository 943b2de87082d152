package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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

// seqCollector records the merged sequence-numbered stream.
type seqCollector struct {
	mu     sync.Mutex
	events []SeqEvent
}

func (c *seqCollector) EmitSeq(ev SeqEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
}

func (c *seqCollector) snapshot() []SeqEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.events)
}

// eventKey is the canonical comparison form of an event.
func eventKey(ev core.Event) string {
	return fmt.Sprintf("%d|%s", ev.Kind, ev.Set.Key())
}

// perSeqKeys groups a merged stream by sequence number into sorted canonical
// keys per update.
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

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Shards: 0, Engine: testEngineCfg}); err == nil {
		t.Error("want error for 0 shards")
	}
	if _, err := New(Config{Shards: 2, Engine: core.Config{T: -1, Nmax: 4}}); err == nil {
		t.Error("want error for invalid engine config")
	}
}

// TestSingleShardMatchesEngine: with K=1 the sharded engine is one core
// engine behind the batching machinery — its merged stream must match the
// plain engine's update for update, and nothing may be deduplicated.
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

	se := MustNew(Config{Shards: 1, Engine: testEngineCfg, BatchSize: 7})
	defer se.Close()
	var col seqCollector
	se.SetSeqSink(&col)
	se.ProcessAll(updates)
	se.Flush()

	gotPerSeq := perSeqKeys(col.snapshot())
	if len(gotPerSeq) != len(wantPerSeq) {
		t.Fatalf("merged stream covers %d updates with events, reference %d", len(gotPerSeq), len(wantPerSeq))
	}
	for seq, want := range wantPerSeq {
		if !slices.Equal(gotPerSeq[seq], want) {
			t.Fatalf("update %d: merged %v != reference %v", seq, gotPerSeq[seq], want)
		}
	}
	st := se.Stats()
	if st.DedupedEvents != 0 {
		t.Fatalf("K=1 deduplicated %d events, want 0", st.DedupedEvents)
	}
	if st.MergedEvents != ref.Stats().Events {
		t.Fatalf("merged %d events, reference emitted %d", st.MergedEvents, ref.Stats().Events)
	}
	if !slices.Equal(se.OutputDenseKeys(), ref.OutputDenseKeys()) {
		t.Fatalf("tracked set %v != reference %v", se.OutputDenseKeys(), ref.OutputDenseKeys())
	}
}

// TestMergedStreamDeterministic: two runs over the same stream must produce
// byte-identical merged streams (same events, same order, same sequence
// numbers) regardless of goroutine scheduling.
func TestMergedStreamDeterministic(t *testing.T) {
	updates := testStream(2, 12, 600, 0.3)
	run := func(batchSize int) []SeqEvent {
		se := MustNew(Config{Shards: 4, Engine: testEngineCfg, BatchSize: batchSize})
		defer se.Close()
		var col seqCollector
		se.SetSeqSink(&col)
		se.ProcessAll(updates)
		se.Flush()
		return col.snapshot()
	}
	a := run(64)
	b := run(64)
	c := run(17) // different batching must not change the merged stream
	for name, other := range map[string][]SeqEvent{"same-batch": b, "batch=17": c} {
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

// TestShardedMatchesSingleEngineResultSet: the merged result set across shard
// counts must equal the single engine's explicit output-dense set.
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
		se := MustNew(Config{Shards: k, Engine: testEngineCfg})
		se.ProcessAll(updates)
		got := se.OutputDenseKeys()
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
	se := MustNew(Config{Shards: 2, Engine: testEngineCfg})
	se.Flush() // no updates: must not hang
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessAfterClosePanics(t *testing.T) {
	se := MustNew(Config{Shards: 2, Engine: testEngineCfg})
	se.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Process after Close did not panic")
		}
	}()
	se.Process(core.Update{A: 1, B: 2, Delta: 1})
}

// TestStatsAggregation pins the delivery accounting contract of both overlap
// policies. Under mirror delivery every shard fully processes the full
// stream; under scoped delivery each shard's Delivered+Applied covers the
// full stream (every replica applies every weight change) while Delivered
// alone is its share of the discovery work, at least the updates it seeds.
func TestStatsAggregation(t *testing.T) {
	updates := testStream(4, 10, 250, 0.25)
	const k = 3

	t.Run("mirror", func(t *testing.T) {
		se := MustNew(Config{Shards: k, Engine: testEngineCfg, Overlap: OverlapMirror})
		defer se.Close()
		se.ProcessAll(updates)
		st := se.Stats()
		if len(st.PerShard) != k || len(st.Loads) != k {
			t.Fatalf("per-shard slices sized %d/%d, want %d", len(st.PerShard), len(st.Loads), k)
		}
		if st.Overlap != OverlapMirror {
			t.Errorf("stats report overlap %v, want mirror", st.Overlap)
		}
		if st.Accepted != uint64(len(updates)) {
			t.Errorf("accepted %d updates, want %d", st.Accepted, len(updates))
		}
		for i, ps := range st.PerShard {
			if ps.Updates != uint64(len(updates)) {
				t.Errorf("shard %d processed %d updates, want %d", i, ps.Updates, len(updates))
			}
			if ps.AppliedOnly != 0 {
				t.Errorf("shard %d took the ApplyOnly path %d times under mirror", i, ps.AppliedOnly)
			}
			l := st.Loads[i]
			if l.Delivered != uint64(len(updates)) || l.Applied != 0 {
				t.Errorf("shard %d load delivered=%d applied=%d, want %d/0", i, l.Delivered, l.Applied, len(updates))
			}
			if f := l.DeliveryFraction(); f != 1 {
				t.Errorf("shard %d delivery fraction %v, want 1 under mirror", i, f)
			}
		}
		if st.Aggregate.Updates != uint64(k*len(updates)) {
			t.Errorf("aggregate updates = %d, want %d", st.Aggregate.Updates, k*len(updates))
		}
		if se.Updates() != uint64(len(updates)) {
			t.Errorf("Updates() = %d, want %d", se.Updates(), len(updates))
		}
		var rawTotal uint64
		for _, l := range st.Loads {
			rawTotal += l.RawEvents
		}
		if rawTotal != st.MergedEvents+st.DedupedEvents {
			t.Errorf("raw events %d != merged %d + deduped %d", rawTotal, st.MergedEvents, st.DedupedEvents)
		}
	})

	t.Run("scoped", func(t *testing.T) {
		se := MustNew(Config{Shards: k, Engine: testEngineCfg}) // scoped is the default
		defer se.Close()
		se.ProcessAll(updates)
		st := se.Stats()
		if st.Overlap != OverlapScoped {
			t.Errorf("stats report overlap %v, want scoped", st.Overlap)
		}
		var deliveredTotal uint64
		for i, l := range st.Loads {
			if l.Delivered+l.Applied != uint64(len(updates)) {
				t.Errorf("shard %d delivered=%d applied=%d, sum want %d", i, l.Delivered, l.Applied, len(updates))
			}
			ps := st.PerShard[i]
			if ps.Updates != l.Delivered || ps.AppliedOnly != l.Applied {
				t.Errorf("shard %d engine counters updates=%d appliedOnly=%d disagree with load %d/%d",
					i, ps.Updates, ps.AppliedOnly, l.Delivered, l.Applied)
			}
			deliveredTotal += l.Delivered
		}
		// Every update is delivered at least to its seeder, never more than
		// K-wide; a fixture this dense must also actually skip something.
		if deliveredTotal < uint64(len(updates)) {
			t.Errorf("delivered total %d < stream length %d (some update had no seeder)", deliveredTotal, len(updates))
		}
		if st.Aggregate.AppliedOnly == 0 {
			t.Error("scoped run skipped nothing; fixture too weak to exercise scoping")
		}
		if f := st.MeanDeliveryFraction(); f <= 0 || f > 1 {
			t.Errorf("mean delivery fraction %v out of (0, 1]", f)
		}
		var rawTotal uint64
		for _, l := range st.Loads {
			rawTotal += l.RawEvents
		}
		if rawTotal != st.MergedEvents+st.DedupedEvents {
			t.Errorf("raw events %d != merged %d + deduped %d", rawTotal, st.MergedEvents, st.DedupedEvents)
		}
	})
}

// TestConcurrentObservers exercises Flush/Stats/queries from other goroutines
// while the producer feeds updates; run under -race this validates the
// engine's internal synchronisation.
func TestConcurrentObservers(t *testing.T) {
	updates := testStream(5, 10, 400, 0.3)
	se := MustNew(Config{Shards: 4, Engine: testEngineCfg, BatchSize: 16})
	defer se.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = se.Stats()
				_ = se.OutputDenseKeys()
				se.Flush()
			}
		}()
	}
	se.ProcessAll(updates)
	close(stop)
	wg.Wait()
	se.Flush()
	if got := se.Updates(); got != uint64(len(updates)) {
		t.Fatalf("Updates() = %d, want %d", got, len(updates))
	}
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

// TestProcessBatchMatchesSingleBatchedEngine: whole-epoch shipping must make
// the merged per-tick event stream identical to a single engine fed the same
// coalesced batches — one sequence number per batch, net events canonically
// deduplicated, result set equal — at K ∈ {1, 2, 4}.
func TestProcessBatchMatchesSingleBatchedEngine(t *testing.T) {
	updates := testStream(6, 10, 600, 0.35)
	batches := batchPartition(61, updates)

	ref := core.MustNew(testEngineCfg)
	var sink core.CollectorSink
	ref.SetSink(&sink)
	wantPerSeq := make(map[uint64][]string)
	refEvents := 0
	for i, b := range batches {
		ref.ProcessBatch(b)
		evs := sink.Take()
		refEvents += len(evs)
		for _, ev := range evs {
			seq := uint64(i + 1)
			wantPerSeq[seq] = append(wantPerSeq[seq], eventKey(ev))
		}
	}
	for _, keys := range wantPerSeq {
		slices.Sort(keys)
	}
	if refEvents == 0 {
		t.Fatal("batched reference emitted no events; fixture too weak")
	}

	for _, k := range []int{1, 2, 4} {
		se := MustNew(Config{Shards: k, Engine: testEngineCfg})
		var col seqCollector
		se.SetSeqSink(&col)
		for _, b := range batches {
			se.ProcessBatch(b)
		}
		se.Flush()
		gotPerSeq := perSeqKeys(col.snapshot())
		if len(gotPerSeq) != len(wantPerSeq) {
			t.Fatalf("K=%d: merged stream covers %d ticks with events, reference %d", k, len(gotPerSeq), len(wantPerSeq))
		}
		for seq, want := range wantPerSeq {
			if !slices.Equal(gotPerSeq[seq], want) {
				t.Fatalf("K=%d tick %d: merged %v != reference %v", k, seq, gotPerSeq[seq], want)
			}
		}
		if !slices.Equal(se.OutputDenseKeys(), ref.OutputDenseKeys()) {
			t.Fatalf("K=%d: tracked set %v != reference %v", k, se.OutputDenseKeys(), ref.OutputDenseKeys())
		}
		st := se.Stats()
		if int(st.MergedEvents) != refEvents {
			t.Fatalf("K=%d: merged %d events, reference emitted %d", k, st.MergedEvents, refEvents)
		}
		if k == 1 && st.DedupedEvents != 0 {
			t.Fatalf("K=1 deduplicated %d events", st.DedupedEvents)
		}
		if se.Updates() != uint64(len(updates)) {
			t.Fatalf("K=%d: Updates() = %d, want %d", k, se.Updates(), len(updates))
		}
		se.Close()
	}
}

// TestProcessBatchInterleavesWithProcess: mixing per-update Process calls and
// coalesced batches must keep sequence numbers and the result set coherent
// (staged micro-batches are dispatched before the coalesced batch).
func TestProcessBatchInterleavesWithProcess(t *testing.T) {
	updates := testStream(7, 10, 300, 0.3)
	ref := core.MustNew(testEngineCfg)
	se := MustNew(Config{Shards: 2, Engine: testEngineCfg, BatchSize: 16})
	defer se.Close()

	for pos := 0; pos < len(updates); {
		if (pos/25)%2 == 0 { // alternate runs of per-update and batched feeding
			end := min(pos+25, len(updates))
			for _, u := range updates[pos:end] {
				ref.Process(u)
				se.Process(u)
			}
			pos = end
		} else {
			end := min(pos+25, len(updates))
			ref.ProcessBatch(updates[pos:end])
			se.ProcessBatch(updates[pos:end])
			pos = end
		}
	}
	se.ProcessBatch(nil) // trailing empty tick must be harmless
	ref.ProcessBatch(nil)
	if !slices.Equal(se.OutputDenseKeys(), ref.OutputDenseKeys()) {
		t.Fatalf("mixed feeding diverged: %v != %v", se.OutputDenseKeys(), ref.OutputDenseKeys())
	}
	if se.Updates() != uint64(len(updates)) {
		t.Fatalf("Updates() = %d, want %d", se.Updates(), len(updates))
	}
}
