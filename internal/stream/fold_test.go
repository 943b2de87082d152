package stream

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/density"
	"dyndens/internal/story"
)

// foldAggConfig fades by 0.8 per epoch of two documents: λ crosses the fold
// floor once every 1 548 epochs, i.e. 3 096 documents.
var foldAggConfig = AggregatorConfig{EpochLength: 2, Decay: 0.8}

// foldDocs is a planted workload of n documents, one per time unit.
func foldDocs(t *testing.T, n int) []Document {
	t.Helper()
	docs, err := DrainDocs(MustDocSynthetic(DocSynthConfig{
		BackgroundEntities: 30,
		Stories:            3,
		StorySize:          4,
		Docs:               n,
		Seed:               5,
		BackgroundSkew:     1.1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// ldexpUpdates returns us with every delta multiplied by 2^k.
func ldexpUpdates(us []Update, k int) []Update {
	out := make([]Update, len(us))
	for i, u := range us {
		out[i] = Update{A: u.A, B: u.B, Delta: math.Ldexp(u.Delta, k)}
	}
	return out
}

// requireRelabel requires engine a's graph and index to be engine b's with
// every weight and score multiplied by 2^shift, bit for bit, and both valid.
func requireRelabel(t *testing.T, label string, a, b *core.Engine, shift int) {
	t.Helper()
	ga, gb := a.Graph().ExportState(), b.Graph().ExportState()
	for i := range gb.EdgeW {
		gb.EdgeW[i] = math.Ldexp(gb.EdgeW[i], shift)
	}
	if !reflect.DeepEqual(ga, gb) {
		t.Fatalf("%s: graph is not the twin's ×2^%d", label, shift)
	}
	ea, eb := a.ExportState(), b.ExportState()
	eb.Scale = math.Ldexp(eb.Scale, -shift)
	for i := range eb.Dense {
		eb.Dense[i].Score = math.Ldexp(eb.Dense[i].Score, shift)
		eb.Dense[i].StarScore = math.Ldexp(eb.Dense[i].StarScore, shift)
	}
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("%s: index is not the twin's ×2^%d", label, shift)
	}
	for _, e := range []*core.Engine{a, b} {
		if msg := e.ValidateIndex(); msg != "" {
			t.Fatalf("%s: %s", label, msg)
		}
		if msg := e.ValidateCertificates(); msg != "" {
			t.Fatalf("%s: %s", label, msg)
		}
	}
}

// TestFoldIsARelabel runs the aggregator's stream through engine a as it
// comes and through a twin b in units 2^-shift times a's: deltas scaled down
// and scales up by 2^shift, starting at shift 250. Each engine folds when the
// scale it is handed crosses the fold floor, so they fold at different units,
// and each fold moves shift by its exponent. Across three folds of each, the
// two must emit the same events and count the same work at every unit — so
// a fold adds no event, insertion, eviction or exploration — and at every
// unit where either folds, one's graph and index must be the other's ×2^shift
// bit for bit: the folded state is the unfolded one relabelled. The folding
// units carry nothing but retirements.
func TestFoldIsARelabel(t *testing.T) {
	agg := mustAggregator(NewSliceDocSource(foldDocs(t, 11000)), foldAggConfig)
	cfg := core.Config{T: 2, Nmax: 4}
	a, b := core.MustNew(cfg), core.MustNew(cfg)
	var sinkA, sinkB core.CollectorSink
	a.SetSink(&sinkA)
	b.SetSink(&sinkB)
	shift := 250
	b.ProcessThresholdBatch(math.Ldexp(1, shift), nil)
	twinStats := func() core.Stats {
		st := b.Stats()
		st.Batches--
		st.ThresholdTicks--
		return st
	}
	var foldsA, foldsB int
	for unit := 0; ; unit++ {
		batch, err := agg.NextBatch()
		if errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		kA, kB := 0, 0
		if batch.Threshold == nil {
			a.ProcessBatch(batch.Updates)
			b.ProcessBatch(ldexpUpdates(batch.Updates, -shift))
		} else {
			s, sB := batch.Threshold.Scale, math.Ldexp(batch.Threshold.Scale, shift)
			_, kA = density.Fold(s)
			_, kB = density.Fold(sB)
			if kA != 0 {
				for _, u := range batch.Updates {
					if u.Delta != -a.Graph().Weight(u.A, u.B) || pairWeight(agg, u.A, u.B) != 0 {
						t.Fatalf("unit %d: the folding unit carries %+v, not a retirement", unit, u)
					}
				}
			}
			a.ProcessThresholdBatch(s, batch.Updates)
			b.ProcessThresholdBatch(sB, ldexpUpdates(batch.Updates, -shift))
		}
		evA, evB := sinkA.Take(), sinkB.Take()
		shift += kA - kB
		if !reflect.DeepEqual(evA, evB) {
			t.Fatalf("unit %d (folds %d, %d): events\n%v\nand the twin's\n%v", unit, kA, kB, evA, evB)
		}
		if st := twinStats(); a.Stats() != st {
			t.Fatalf("unit %d (folds %d, %d): work\n%+v\nand the twin's\n%+v", unit, kA, kB, a.Stats(), st)
		}
		if kA != 0 || kB != 0 {
			requireRelabel(t, "after a fold", a, b, shift)
			foldsA += min(1, -kA)
			foldsB += min(1, -kB)
		}
	}
	requireRelabel(t, "at the end", a, b, shift)
	st := agg.Stats()
	if foldsA < 3 || foldsB < 3 || st.Renorms != foldsA || a.Stats().Events == 0 || a.Stats().Evictions == 0 {
		t.Fatalf("the run folded %d and %d times (aggregator %d) over %d events and %d evictions; want 3 each",
			foldsA, foldsB, st.Renorms, a.Stats().Events, a.Stats().Evictions)
	}
	if st.DecayUpdates != st.Retired || st.Retired == 0 {
		t.Fatalf("the aggregator emitted %d decay updates for %d retirements", st.DecayUpdates, st.Retired)
	}
	if a.DecayScale() != agg.lambda {
		t.Fatalf("engine at scale %v, aggregator at %v", a.DecayScale(), agg.lambda)
	}
}

// TestRestoreAtFoldBoundaryIsInvisible exports the aggregator and the engine
// at the first drained boundary after a fold, restores both, and carries on:
// the batches, the events and the story table must equal the uninterrupted
// run's, which they can only if the restored engine's schedule — computed
// from the real threshold and the restored scale — is the folded one bit for
// bit.
func TestRestoreAtFoldBoundaryIsInvisible(t *testing.T) {
	docs := foldDocs(t, 4000)
	engCfg := core.Config{T: 2, Nmax: 4}
	run := func(restore bool) ([]recordedBatch, [][]core.Event, *loggedTracker) {
		agg := mustAggregator(NewSliceDocSource(docs), foldAggConfig)
		eng := core.MustNew(engCfg)
		var sink core.CollectorSink
		eng.SetSink(&sink)
		tr := newLoggedTracker(story.Config{MinCardinality: 3, Grace: 40})
		var batches []recordedBatch
		var events [][]core.Event
		for {
			b, err := agg.NextBatch()
			if errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			rb := recordedBatch{updates: append([]Update(nil), b.Updates...), decay: b.Decay}
			if b.Threshold != nil {
				thr := *b.Threshold
				rb.threshold = &thr
				eng.ProcessThresholdBatch(thr.Scale, b.Updates)
			} else {
				eng.ProcessBatch(b.Updates)
			}
			evs := sink.Take()
			batches, events = append(batches, rb), append(events, evs)
			for _, ev := range evs {
				tr.Emit(ev)
			}
			tr.EndUpdate()
			if !restore || agg.Stats().Renorms == 0 || !agg.Drained() {
				continue
			}
			restore = false
			aggSt, err := agg.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if agg, err = NewAggregatorFromState(NewSliceDocSource(docs[agg.Stats().Docs:]), foldAggConfig, aggSt); err != nil {
				t.Fatal(err)
			}
			fresh := core.MustNew(engCfg)
			if err := fresh.ImportState(eng.Graph().ExportState(), eng.ExportState()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh.Thresholds(), eng.Thresholds()) {
				t.Fatalf("restored schedule %v, the folded one %v", fresh.Thresholds(), eng.Thresholds())
			}
			eng = fresh
			eng.SetSink(&sink)
		}
		if restore {
			t.Fatal("the run never folded")
		}
		tr.Close(uint64(len(batches)))
		return batches, events, tr
	}
	wantB, wantE, wantT := run(false)
	gotB, gotE, gotT := run(true)
	requireSameBatches(t, "restored at the fold", gotB, wantB)
	if !reflect.DeepEqual(gotE, wantE) {
		t.Fatal("restored at the fold: the events diverge")
	}
	requireSameRecords(t, "restored at the fold", gotT, wantT)
	if wantT.Stats().Born == 0 {
		t.Fatal("no story was born; fixture too weak")
	}
}

// TestAggregatorStateRejectsTamperedHeap restores an aggregator from an
// exported state with its retirement heap tampered in each way the restore
// must catch: out of heap order (it would retire late, drifting from the
// per-pair sweep), a non-finite expiry scale, an entry naming an untracked
// pair, a pair queued twice, and a tracked pair not queued at all.
func TestAggregatorStateRejectsTamperedHeap(t *testing.T) {
	cfg := AggregatorConfig{EpochLength: 10, Decay: 0.5, PruneBelow: 0.05}
	agg := mustAggregator(NewSliceDocSource(pipelineConfDocs(3, 300)), cfg)
	drainAggregator(t, agg)
	good, err := agg.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Retire) < 3 || len(good.Retire) != len(good.Pairs) {
		t.Fatalf("fixture: %d heap entries for %d pairs", len(good.Retire), len(good.Pairs))
	}
	// child is an entry whose expiry scale is strictly below its parent's.
	child := -1
	for i := len(good.Retire) - 1; i > 0 && child < 0; i-- {
		if good.Retire[(i-1)/2].ExpLambda > good.Retire[i].ExpLambda {
			child = i
		}
	}
	if child < 0 {
		t.Fatal("fixture: no entry below its parent")
	}
	for _, c := range []struct {
		name   string
		tamper func(st *AggregatorState)
		ok     bool
	}{
		{"untouched", func(*AggregatorState) {}, true},
		{"out of order", func(st *AggregatorState) {
			p := (child - 1) / 2
			st.Retire[p], st.Retire[child] = st.Retire[child], st.Retire[p]
		}, false},
		{"infinite expiry", func(st *AggregatorState) { st.Retire[0].ExpLambda = math.Inf(1) }, false},
		{"NaN expiry", func(st *AggregatorState) { st.Retire[1].ExpLambda = math.NaN() }, false},
		{"untracked pair", func(st *AggregatorState) { st.Retire[1].A, st.Retire[1].B = 1000, 1001 }, false},
		{"pair queued twice", func(st *AggregatorState) {
			st.Retire[child].A, st.Retire[child].B = st.Retire[0].A, st.Retire[0].B
		}, false},
		{"pair not queued", func(st *AggregatorState) { st.Retire = st.Retire[:len(st.Retire)-1] }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := good
			st.Retire = append([]RetireEntryState(nil), good.Retire...)
			c.tamper(&st)
			_, err := NewAggregatorFromState(NewSliceDocSource(nil), cfg, st)
			if c.ok != (err == nil) {
				t.Fatalf("restore returned %v", err)
			}
		})
	}
}

// TestAggregatorResumesFromHeapLayout restores, mid-stream, an aggregator
// state whose retirement entries are laid out as a heap built by pushes in
// pair-key order — the layout a snapshot of an older build holds — rather
// than in the descending order an export now writes. The resumed run must
// emit the uninterrupted run's batches, and its counters must add up to the
// uninterrupted run's: which entries a tick pops depends on the expiry
// scales alone, not on where each entry waits.
func TestAggregatorResumesFromHeapLayout(t *testing.T) {
	cfg := AggregatorConfig{EpochLength: 10, Decay: 0.8, PruneBelow: 0.05}
	docs := pipelineConfDocs(3, 600)
	whole := mustAggregator(NewSliceDocSource(docs), cfg)
	want := drainAggregator(t, whole)
	wantStats := whole.Stats()
	for _, cut := range []int{150, 300, 450} {
		agg := mustAggregator(NewSliceDocSource(docs), cfg)
		var got []recordedBatch
		for agg.Stats().Docs < cut || !agg.Drained() {
			b, err := agg.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			rb := recordedBatch{updates: append([]Update(nil), b.Updates...), decay: b.Decay}
			if b.Threshold != nil {
				thr := *b.Threshold
				rb.threshold = &thr
			}
			got = append(got, rb)
		}
		before := agg.Stats()
		st, err := agg.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		keyed := slices.Clone(st.Retire)
		slices.SortFunc(keyed, func(x, y RetireEntryState) int {
			return cmp.Compare(makePairKey(x.A, x.B), makePairKey(y.A, y.B))
		})
		var q retireQueue
		for _, e := range keyed {
			q.push(retireEntry{key: makePairKey(e.A, e.B), expLambda: e.ExpLambda})
		}
		sorted := true
		for i, e := range q.heap {
			a, b := e.key.vertices()
			st.Retire[i] = RetireEntryState{A: a, B: b, ExpLambda: e.expLambda}
			sorted = sorted && (i == 0 || q.heap[i-1].expLambda >= e.expLambda)
		}
		if sorted {
			t.Fatalf("cut %d: the pushed heap of %d entries came out sorted; fixture too weak", cut, len(q.heap))
		}
		resumed, err := NewAggregatorFromState(NewSliceDocSource(docs[before.Docs:]), cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, drainAggregator(t, resumed)...)
		requireSameBatches(t, fmt.Sprintf("resumed at document %d", before.Docs), got, want)
		after := resumed.Stats()
		sum := AggregatorStats{
			Docs:             before.Docs + after.Docs,
			PairUpdates:      before.PairUpdates + after.PairUpdates,
			DecayUpdates:     before.DecayUpdates + after.DecayUpdates,
			Retired:          before.Retired + after.Retired,
			Epochs:           before.Epochs + after.Epochs,
			TrackedPairs:     after.TrackedPairs,
			ThresholdUpdates: before.ThresholdUpdates + after.ThresholdUpdates,
			Renorms:          before.Renorms + after.Renorms,
			EpochPairTouches: before.EpochPairTouches + after.EpochPairTouches,
		}
		if sum != wantStats {
			t.Fatalf("resumed at document %d: stats add up to %+v, want %+v", before.Docs, sum, wantStats)
		}
		if before.Retired == 0 || after.Retired == 0 || after.EpochPairTouches == after.Retired {
			t.Fatalf("cut %d: %+v then %+v; fixture too weak", cut, before, after)
		}
	}
}
