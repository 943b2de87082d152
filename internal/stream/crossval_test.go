package stream

import (
	"maps"
	"slices"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/core"
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
