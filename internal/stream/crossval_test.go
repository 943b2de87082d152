package stream

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/core"
	"dyndens/internal/shard"
)

// The cross-validation tests replay seeded random update streams through the
// full pipeline (synthetic source → replay → engine → sink) and, every K
// updates, check the engine against the exhaustive offline oracle:
//
//  1. the engine's expanded output-dense set (explicit entries plus
//     ImplicitTooDense family members) must equal brute.EnumerateAll, and
//  2. the result set maintained purely from sink events must equal the
//     engine's explicitly indexed output-dense set — i.e. a downstream
//     consumer that only watches the stream of Became/Ceased events holds
//     exactly the engine's view.
//
// The graphs are kept small because EnumerateAll is exponential.

const crossValInterval = 25

// eventTracker maintains an output-dense result set from sink events, the way
// a story-identification consumer would.
type eventTracker struct {
	t    *testing.T
	keys map[string]bool
}

func newEventTracker(t *testing.T) *eventTracker {
	return &eventTracker{t: t, keys: make(map[string]bool)}
}

func (tr *eventTracker) Emit(ev core.Event) {
	k := ev.Set.Key()
	switch ev.Kind {
	case core.BecameOutputDense:
		if tr.keys[k] {
			tr.t.Errorf("BecameOutputDense for already-tracked %v", ev.Set)
		}
		tr.keys[k] = true
	case core.CeasedOutputDense:
		if !tr.keys[k] {
			tr.t.Errorf("CeasedOutputDense for untracked %v", ev.Set)
		}
		delete(tr.keys, k)
	default:
		tr.t.Errorf("unknown event kind %v", ev.Kind)
	}
}

func (tr *eventTracker) sortedKeys() []string {
	return slices.Sorted(maps.Keys(tr.keys))
}

// checkAgainstOracle asserts invariant 1 above after the first step updates
// of the stream updates, over the vertex universe they bring.
func checkAgainstOracle(t *testing.T, eng *core.Engine, updates []Update, step int) {
	t.Helper()
	cfg := eng.Config()
	p := brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: brute.UniverseOf(updates[:step])}
	wantKeys := brute.Keys(brute.EnumerateAll(eng.Graph(), p))
	if gotKeys := brute.OutputDenseExpanded(eng, p); !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("after %d updates: engine output-dense set %v != oracle %v", step, gotKeys, wantKeys)
	}
	if msg := eng.ValidateIndex(); msg != "" {
		t.Fatalf("after %d updates: index invalid: %s", step, msg)
	}
	if msg := eng.ValidateCertificates(); msg != "" {
		t.Fatalf("after %d updates: %s", step, msg)
	}
}

// runCrossVal replays a seeded stream through the given sink, validating
// every crossValInterval updates. checkTracker is non-nil when the sink chain
// feeds an eventTracker whose view must match the engine's.
func runCrossVal(t *testing.T, seed int64, sink core.EventSink, tracker *eventTracker) {
	t.Helper()
	synth := SynthConfig{
		Vertices:         10,
		Updates:          400,
		Seed:             seed,
		NegativeFraction: 0.35,
		MeanDelta:        1.5,
	}
	updates := MustSynthetic(synth)
	eng := core.MustNew(core.Config{T: 2, Nmax: 4})
	r := NewReplay(NewSliceSource(updates, crossValInterval), eng, sink)
	checks := 0
	r.SetBoundaryHook(func() error {
		step := r.Stats().Updates
		checkAgainstOracle(t, eng, updates, step)
		if tracker != nil {
			got := tracker.sortedKeys()
			want := eng.OutputDenseKeys()
			if !slices.Equal(got, want) {
				t.Fatalf("after %d updates: event-tracked set %v != engine explicit set %v", step, got, want)
			}
		}
		checks++
		return nil
	})
	st, err := r.RunBatches(crossValInterval, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 400 || checks != 400/crossValInterval {
		t.Fatalf("replayed %d updates with %d checks, want 400 with %d", st.Updates, checks, 400/crossValInterval)
	}
	if eng.Stats().Events == 0 {
		t.Fatal("stream produced no events; cross-validation exercised nothing")
	}
}

func TestCrossValThroughCollectorSink(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tracker := newEventTracker(t)
		// Collector in front of the tracker: also assert the collected slice
		// and the tracker agree on event counts at the end.
		var collector core.CollectorSink
		runCrossVal(t, seed, core.MultiSink{&collector, tracker}, tracker)
		if collector.Len() == 0 {
			t.Fatalf("seed %d: collector saw no events", seed)
		}
	}
}

func TestCrossValThroughCountingSink(t *testing.T) {
	for seed := int64(4); seed <= 6; seed++ {
		var counter core.CountingSink
		runCrossVal(t, seed, &counter, nil)
		if counter.Became < counter.Ceased {
			t.Fatalf("seed %d: more ceased (%d) than became (%d) events", seed, counter.Ceased, counter.Became)
		}
	}
}

func TestCrossValThroughFilterSink(t *testing.T) {
	for seed := int64(7); seed <= 9; seed++ {
		// Pass-everything filter so the tracker still mirrors the engine.
		tracker := newEventTracker(t)
		filter := &core.FilterSink{Next: tracker, MinCardinality: 2}
		runCrossVal(t, seed, filter, tracker)
		if filter.Passed == 0 || filter.Dropped != 0 {
			t.Fatalf("seed %d: filter passed=%d dropped=%d, want all passed", seed, filter.Passed, filter.Dropped)
		}
	}
}

// shardedSeqCollector records the sharded engine's merged stream grouped by
// update sequence number. The merge goroutine is the only writer while the
// replay is in flight; reads happen after Flush.
type shardedSeqCollector struct {
	mu     sync.Mutex
	events map[uint64][]shard.SeqEvent
}

func (c *shardedSeqCollector) EmitSeq(ev shard.SeqEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.events == nil {
		c.events = make(map[uint64][]shard.SeqEvent)
	}
	c.events[ev.Seq] = append(c.events[ev.Seq], ev)
}

// canonEvent is the canonical per-update comparison form of one event:
// kind and subgraph identify it, the score is checked with a tolerance.
func canonEvent(ev core.Event) string {
	return fmt.Sprintf("%d|%s", ev.Kind, ev.Set.Key())
}

func sortedCanon(events []core.Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = canonEvent(ev)
	}
	sort.Strings(out)
	return out
}

// TestShardedConformance is the oracle-backed conformance suite for the
// sharded engine: for K ∈ {1, 2, 4} the merged event stream must be
// identical, update for update (after canonical sorting within each update),
// to the single-threaded engine's output on the same seeded stream — and
// every crossValInterval updates both must agree with brute.EnumerateAll and
// with the result set a downstream consumer tracks from the merged events.
func TestShardedConformance(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		for seed := int64(11); seed <= 13; seed++ {
			t.Run(fmt.Sprintf("K=%d/seed=%d", k, seed), func(t *testing.T) {
				updates, err := Synthetic(SynthConfig{
					Vertices:         10,
					Updates:          400,
					Seed:             seed,
					NegativeFraction: 0.35,
					MeanDelta:        1.5,
				})
				if err != nil {
					t.Fatal(err)
				}

				single := core.MustNew(core.Config{T: 2, Nmax: 4})
				var singleEvents core.CollectorSink
				single.SetSink(&singleEvents)
				se := shard.MustNew(shard.Config{
					Shards:    k,
					Engine:    core.Config{T: 2, Nmax: 4},
					BatchSize: 32, // deliberately not a divisor of the interval
				})
				defer se.Close()
				var merged shardedSeqCollector
				se.SetSeqSink(&merged)

				totalSingle := 0
				for step := 0; step < len(updates); step += crossValInterval {
					end := step + crossValInterval
					if end > len(updates) {
						end = len(updates)
					}
					chunk := updates[step:end]

					// Reference: per-update events from the single engine.
					want := make(map[uint64][]core.Event)
					for i, u := range chunk {
						single.Process(u)
						evs := singleEvents.Take()
						totalSingle += len(evs)
						if len(evs) > 0 {
							want[uint64(step+i+1)] = evs
						}
					}
					se.ProcessAll(chunk)
					se.Flush()

					// Per-update event identity for the chunk just replayed.
					for i := range chunk {
						seq := uint64(step + i + 1)
						wantEvs := want[seq]
						gotEvs := merged.events[seq]
						if len(gotEvs) != len(wantEvs) {
							t.Fatalf("update %d: sharded emitted %d events, single %d", seq, len(gotEvs), len(wantEvs))
						}
						if len(wantEvs) == 0 {
							continue
						}
						got := make([]core.Event, len(gotEvs))
						for j, sev := range gotEvs {
							if sev.Seq != seq {
								t.Fatalf("event grouped under %d carries seq %d", seq, sev.Seq)
							}
							got[j] = sev.Event
						}
						gotCanon, wantCanon := sortedCanon(got), sortedCanon(wantEvs)
						if !slices.Equal(gotCanon, wantCanon) {
							t.Fatalf("update %d: merged events %v != single engine %v", seq, gotCanon, wantCanon)
						}
						// Scores must match up to float accumulation noise.
						byKey := make(map[string]core.Event, len(wantEvs))
						for _, ev := range wantEvs {
							byKey[canonEvent(ev)] = ev
						}
						for _, ev := range got {
							ref := byKey[canonEvent(ev)]
							if math.Abs(ev.Score-ref.Score) > 1e-6 {
								t.Fatalf("update %d: score for %v diverged: %g vs %g", seq, ev.Set, ev.Score, ref.Score)
							}
						}
					}

					// Oracle checkpoint: single engine vs brute, merged-tracked
					// set vs both.
					checkAgainstOracle(t, single, updates, end)
					gotKeys := se.OutputDenseKeys()
					wantKeys := single.OutputDenseKeys()
					if !slices.Equal(gotKeys, wantKeys) {
						t.Fatalf("after %d updates: merged-tracked set %v != single engine %v", end, gotKeys, wantKeys)
					}
				}
				if totalSingle == 0 {
					t.Fatal("stream produced no events; conformance exercised nothing")
				}
				st := se.Stats()
				if int(st.MergedEvents) != totalSingle {
					t.Fatalf("merged %d events, single engine emitted %d", st.MergedEvents, totalSingle)
				}
				if k == 1 && st.DedupedEvents != 0 {
					t.Fatalf("K=1 deduplicated %d events", st.DedupedEvents)
				}
			})
		}
	}
}

// TestShardReplayMatchesReplay drives the same seeded stream through the
// single-engine Replay and the parallel ShardReplay and checks that both
// report the same updates and events, and that the sharded path's per-shard
// accounting is coherent.
func TestShardReplayMatchesReplay(t *testing.T) {
	synth := SynthConfig{Vertices: 12, Updates: 600, Seed: 21, NegativeFraction: 0.3, MeanDelta: 1.5}
	engCfg := core.Config{T: 2, Nmax: 4}

	updates := MustSynthetic(synth)
	eng := core.MustNew(engCfg)
	refStats, err := NewReplay(NewSliceSource(updates, 64), eng, nil).RunBatches(64, false)
	if err != nil {
		t.Fatal(err)
	}

	se := shard.MustNew(shard.Config{Shards: 4, Engine: engCfg})
	defer se.Close()
	var counter core.CountingSink
	r := NewShardReplay(NewSliceSource(updates, 64), se, &counter)
	st, err := r.RunBatches(64, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != refStats.Updates {
		t.Fatalf("sharded replay processed %d updates, single %d", st.Updates, refStats.Updates)
	}
	if st.Events != refStats.Events {
		t.Fatalf("sharded replay merged %d events, single emitted %d", st.Events, refStats.Events)
	}
	if counter.Total() != st.Events {
		t.Fatalf("sink saw %d events, stats report %d", counter.Total(), st.Events)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("per-shard stats sized %d/%d, want 4", st.Shards, len(st.PerShard))
	}
	if st.Wall <= 0 || st.UpdatesPerSecond() <= 0 || st.BusyTotal() <= 0 {
		t.Fatalf("degenerate timing stats: %+v", st)
	}
	var raw uint64
	for _, l := range st.PerShard {
		raw += l.RawEvents
	}
	if raw < st.Events {
		t.Fatalf("raw per-shard events %d < merged %d", raw, st.Events)
	}
	if !slices.Equal(se.OutputDenseKeys(), eng.OutputDenseKeys()) {
		t.Fatalf("result sets differ: %v vs %v", se.OutputDenseKeys(), eng.OutputDenseKeys())
	}
}

// TestCrossValFilterSinkSelective checks that a genuinely selective filter
// sees exactly the engine events that satisfy its predicates.
func TestCrossValFilterSinkSelective(t *testing.T) {
	src := NewSliceSource(MustSynthetic(SynthConfig{Vertices: 10, Updates: 400, Seed: 10, NegativeFraction: 0.35, MeanDelta: 1.5}), crossValInterval)
	eng := core.MustNew(core.Config{T: 2, Nmax: 4})
	var all, filtered core.CollectorSink
	filter := &core.FilterSink{Next: &filtered, MinCardinality: 3}
	if _, err := NewReplay(src, eng, core.MultiSink{&all, filter}).RunBatches(crossValInterval, false); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, ev := range all.Events() {
		if ev.Set.Len() >= 3 {
			want++
		}
	}
	if want == 0 {
		t.Fatal("stream produced no events with cardinality ≥ 3; fixture too weak")
	}
	if filtered.Len() != want {
		t.Fatalf("filter forwarded %d events, want %d", filtered.Len(), want)
	}
	for _, ev := range filtered.Events() {
		if ev.Set.Len() < 3 {
			t.Fatalf("filter leaked small event %v", ev.Set)
		}
	}
}
