// The batch-vs-sequential conformance suite: the oracle-backed evidence that
// epoch-coalesced batch processing is trustworthy.
//
// Batched processing reorders internal work (deltas applied up front, one
// deduplicated discovery pass, net events at the batch boundary), so the
// suite pins what must NOT change:
//
//   - the per-batch net event stream must equal the netting of the
//     sequential engine's per-update events over the same batch partition;
//   - the resulting story lifecycle records and final story table must
//     deep-equal the sequential reference driven at the same boundaries;
//   - on a stream that warms every vertex in and never clamps an edge
//     (cliqueWarmup, clampFreeStream), where the explicit index is a
//     function of the graph alone, OutputDenseKeys must deep-equal the
//     sequential engine's, and the expanded set brute.EnumerateAll;
//   - the sharded batched path (whole-epoch shipping) must be bit-identical
//     to the single batched engine at K ∈ {1, 2, 4};
//
// randomized over batch partitions that include empty batches and the
// duplicate pairs a mixed synthetic workload naturally repeats.
package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/core"
	"dyndens/internal/shard"
	"dyndens/internal/story"
)

// trackerConfig keeps grace windows short enough that stories die within the
// test streams; boundaries are batch ticks in every compared mode.
var trackerConfig = story.Config{MinJaccard: 0.5, Grace: 25}

// randomBatches partitions updates into random contiguous batches of size
// 0–8 (empty batches included).
func randomBatches(seed int64, updates []core.Update) [][]core.Update {
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

// canonKeys is the canonical comparison form of an event group.
func canonKeys(events []core.Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = fmt.Sprintf("%d|%s", ev.Kind, ev.Set.Key())
	}
	sort.Strings(out)
	return out
}

// netBatcher folds a batch's sequential per-update events into the net
// transitions across the batch — the event group the batched engine promises
// to emit at the boundary.
type netBatcher struct {
	live map[string]bool
}

func newNetBatcher() *netBatcher { return &netBatcher{live: make(map[string]bool)} }

func (n *netBatcher) net(events []core.Event) []core.Event {
	before := make(map[string]bool, len(events))
	last := make(map[string]core.Event, len(events))
	for _, ev := range events {
		k := ev.Set.Key()
		if _, seen := before[k]; !seen {
			before[k] = n.live[k]
		}
		if ev.Kind == core.BecameOutputDense {
			n.live[k] = true
		} else {
			delete(n.live, k)
		}
		last[k] = ev
	}
	var out []core.Event
	for k, ev := range last {
		if before[k] != n.live[k] {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Set.Key() < out[j].Set.Key()
	})
	return out
}

// tickRecorder groups sink events by update boundary.
type tickRecorder struct {
	ticks [][]core.Event
	cur   []core.Event
}

func (r *tickRecorder) Emit(ev core.Event) { r.cur = append(r.cur, ev) }
func (r *tickRecorder) EndUpdate() {
	r.ticks = append(r.ticks, r.cur)
	r.cur = nil
}

// seqFanOut forwards the merged sequence-numbered stream to several sinks.
type seqFanOut []shard.SeqSink

func (f seqFanOut) EmitSeq(ev shard.SeqEvent) {
	for _, s := range f {
		s.EmitSeq(ev)
	}
}

// seqRecorder groups the merged stream by sequence number. The merge
// goroutine is the only writer while the replay is in flight.
type seqRecorder struct {
	mu    sync.Mutex
	bySeq map[uint64][]core.Event
}

func (r *seqRecorder) EmitSeq(ev shard.SeqEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bySeq == nil {
		r.bySeq = make(map[uint64][]core.Event)
	}
	r.bySeq[ev.Seq] = append(r.bySeq[ev.Seq], ev.Event)
}

func (r *seqRecorder) tick(seq uint64) []core.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bySeq[seq]
}

// loggedTracker is a story tracker with the log of the lifecycle records it
// streamed through its record sink. It is a sink wherever the tracker is.
type loggedTracker struct {
	*story.Tracker
	records []story.Record
}

func newLoggedTracker(cfg story.Config) *loggedTracker {
	lt := &loggedTracker{Tracker: story.MustTracker(cfg)}
	lt.SetRecordSink(func(r story.Record) { lt.records = append(lt.records, r) })
	return lt
}

// requireSameRecords asserts two lifecycle streams, their per-kind counts and
// the story tables are deep-equal.
func requireSameRecords(t *testing.T, label string, got, want *loggedTracker) {
	t.Helper()
	if !reflect.DeepEqual(got.records, want.records) {
		t.Fatalf("%s: lifecycle records diverge:\n--- got ---\n%v\n--- want ---\n%v", label, got.records, want.records)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: tracker stats diverge: got %+v, want %+v", label, got.Stats(), want.Stats())
	}
	if !reflect.DeepEqual(got.Stories(), want.Stories()) {
		t.Fatalf("%s: story tables diverge:\n--- got ---\n%v\n--- want ---\n%v", label, got.Stories(), want.Stories())
	}
}

// cliqueWarmup returns one tiny-weight update per vertex pair. Which dense
// subgraphs the engine represents EXPLICITLY (vs implicitly through
// ImplicitTooDense families) depends on when vertices first appear in the
// graph — an order the batch mode deliberately changes. Warming every vertex
// in as a shared first batch removes that degree of freedom, so the explicit
// output-dense set becomes a function of the graph alone and
// batch-vs-sequential key equality is a fair assertion. The ε weights shift
// every score identically in both engines.
func cliqueWarmup(vertices int) []core.Update {
	var out []core.Update
	for a := 0; a < vertices; a++ {
		for b := a + 1; b < vertices; b++ {
			out = append(out, core.Update{A: core.Vertex(a), B: core.Vertex(b), Delta: 1e-6})
		}
	}
	return out
}

// clampFreeStream draws a mixed update stream whose negative deltas shrink
// the current weight multiplicatively instead of subtracting an unbounded
// amount, so no edge is ever clamped to zero. Clamping removes edges, and a
// removed edge disconnects vertices — after which whether a dense
// C∪{disconnected y} is explicit or an implicit '*'-family member depends on
// processing order again (the ambiguity cliqueWarmup eliminates for vertex
// appearance). Deep key equality is asserted on clamp-free streams; clamping
// itself is pinned by the core batch tests and the semantic (brute-oracle)
// tier. Duplicate pairs occur naturally: 10 vertices, hundreds of draws.
func clampFreeStream(seed int64, vertices, n int) []core.Update {
	rng := rand.New(rand.NewSource(seed))
	weights := make(map[[2]core.Vertex]float64)
	out := make([]core.Update, 0, n)
	for i := 0; i < n; i++ {
		a := core.Vertex(rng.Intn(vertices))
		b := core.Vertex(rng.Intn(vertices))
		for b == a {
			b = core.Vertex(rng.Intn(vertices))
		}
		if a > b {
			a, b = b, a
		}
		k := [2]core.Vertex{a, b}
		var delta float64
		if w := weights[k]; w > 1e-5 && rng.Float64() < 0.35 {
			delta = -w * (0.3 + 0.6*rng.Float64()) // shrink, never to zero
		} else {
			delta = rng.ExpFloat64() * 1.5
		}
		weights[k] += delta
		out = append(out, core.Update{A: a, B: b, Delta: delta})
	}
	return out
}

// TestBatchConformance is the batch-vs-sequential property test. For every
// seed it draws a mixed workload and a random batch partition, builds the
// sequential reference (per-update Process, events netted per batch, story
// tracker driven at the same boundaries), and checks the batched single
// engine (K=0) and the whole-epoch sharded path (K ∈ {1, 2, 4}) against it:
// per-batch net events, OutputDenseKeys at every checkpoint, the brute-force
// oracle, and the story lifecycle records and final table.
func TestBatchConformance(t *testing.T) {
	const checkEvery = 10 // batches between flush-and-compare checkpoints
	engCfg := core.Config{T: 2, Nmax: 4}
	for seed := int64(31); seed <= 33; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			updates := clampFreeStream(seed, 10, 400)
			batches := append([][]core.Update{cliqueWarmup(10)}, randomBatches(seed*7, updates)...)

			// Sequential reference: per-update processing, netted per batch.
			ref := core.MustNew(engCfg)
			var raw core.CollectorSink
			ref.SetSink(&raw)
			refTracker := newLoggedTracker(trackerConfig)
			netter := newNetBatcher()
			nets := make([][]core.Event, len(batches))
			refKeys := make([][]string, len(batches))
			totalNet := 0
			for i, b := range batches {
				for _, u := range b {
					ref.Process(u)
				}
				nets[i] = netter.net(raw.Take())
				refKeys[i] = ref.OutputDenseKeys()
				totalNet += len(nets[i])
				for _, ev := range nets[i] {
					refTracker.Emit(ev)
				}
				refTracker.EndUpdate()
			}
			refTracker.Close(uint64(len(batches)))
			if totalNet == 0 {
				t.Fatal("reference produced no net events; fixture too weak")
			}

			// K=0: the batched single engine.
			bat := core.MustNew(engCfg)
			batTracker := newLoggedTracker(trackerConfig)
			rec := &tickRecorder{}
			bat.SetSink(core.MultiSink{rec, batTracker})
			var applied []core.Update
			for i, b := range batches {
				bat.ProcessBatch(b)
				applied = append(applied, b...)
				if got, want := canonKeys(rec.ticks[i]), canonKeys(nets[i]); !slices.Equal(got, want) {
					t.Fatalf("batch %d: batched events %v != sequential net %v", i, got, want)
				}
				if i%checkEvery == 0 || i == len(batches)-1 {
					if got := bat.OutputDenseKeys(); !slices.Equal(got, refKeys[i]) {
						t.Fatalf("after batch %d: batched keys %v != sequential %v", i, got, refKeys[i])
					}
					cfg := bat.Config()
					p := brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: brute.UniverseOf(applied)}
					oracle := brute.Keys(brute.EnumerateAll(bat.Graph(), p))
					if expanded := brute.OutputDenseExpanded(bat, p); !slices.Equal(expanded, oracle) {
						t.Fatalf("after batch %d: batched expanded set %v != oracle %v", i, expanded, oracle)
					}
				}
			}
			batTracker.Close(uint64(len(batches)))
			requireSameRecords(t, "K=0", batTracker, refTracker)

			// K ∈ {1, 2, 4}: whole-epoch shipping through the sharded engine.
			for _, k := range []int{1, 2, 4} {
				se := shard.MustNew(shard.Config{Shards: k, Engine: engCfg})
				shTracker := newLoggedTracker(trackerConfig)
				shRec := &seqRecorder{}
				se.SetSeqSink(seqFanOut{shRec, shTracker})
				for i, b := range batches {
					se.ProcessBatch(b)
					if i%checkEvery == 0 || i == len(batches)-1 {
						if got := se.OutputDenseKeys(); !slices.Equal(got, refKeys[i]) {
							t.Fatalf("K=%d after batch %d: merged keys %v != sequential %v", k, i, got, refKeys[i])
						}
					}
				}
				se.Flush()
				for i := range batches {
					got, want := canonKeys(shRec.tick(uint64(i+1))), canonKeys(nets[i])
					if !slices.Equal(got, want) {
						t.Fatalf("K=%d batch %d: merged events %v != sequential net %v", k, i, got, want)
					}
				}
				shTracker.Close(uint64(len(batches)))
				requireSameRecords(t, fmt.Sprintf("K=%d", k), shTracker, refTracker)
				se.Close()
			}
		})
	}
}

// TestBatchConformanceImplicitRepresentation is the production-default tier
// (ImplicitTooDense enabled). Which dense subgraphs are explicit is then
// order-dependent, so sequential equality is asserted at the semantic level —
// the expanded output-dense set of both engines equals brute.EnumerateAll on
// the shared graph state — while the batched paths themselves must stay
// bit-identical: the sharded whole-epoch stream deep-equals the single
// batched engine's events, result set, lifecycle records, and story table.
func TestBatchConformanceImplicitRepresentation(t *testing.T) {
	engCfg := core.Config{T: 2, Nmax: 4}
	for seed := int64(41); seed <= 42; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
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
			batches := randomBatches(seed*7, updates)

			seq := core.MustNew(engCfg)
			bat := core.MustNew(engCfg)
			batTracker := newLoggedTracker(trackerConfig)
			rec := &tickRecorder{}
			bat.SetSink(core.MultiSink{rec, batTracker})
			applied := 0
			for i, b := range batches {
				for _, u := range b {
					seq.Process(u)
				}
				bat.ProcessBatch(b)
				applied += len(b)
				if i%10 == 0 || i == len(batches)-1 {
					cfg := bat.Config()
					p := brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: brute.UniverseOf(updates[:applied])}
					oracle := brute.Keys(brute.EnumerateAll(bat.Graph(), p))
					for name, eng := range map[string]*core.Engine{"batched": bat, "sequential": seq} {
						if expanded := brute.OutputDenseExpanded(eng, p); !slices.Equal(expanded, oracle) {
							t.Fatalf("after batch %d: %s expanded set %v != oracle %v", i, name, expanded, oracle)
						}
					}
				}
			}
			batTracker.Close(uint64(len(batches)))

			for _, k := range []int{1, 2, 4} {
				se := shard.MustNew(shard.Config{Shards: k, Engine: engCfg})
				shTracker := newLoggedTracker(trackerConfig)
				shRec := &seqRecorder{}
				se.SetSeqSink(seqFanOut{shRec, shTracker})
				for _, b := range batches {
					se.ProcessBatch(b)
				}
				se.Flush()
				for i := range batches {
					got, want := canonKeys(shRec.tick(uint64(i+1))), canonKeys(rec.ticks[i])
					if !slices.Equal(got, want) {
						t.Fatalf("K=%d batch %d: merged events %v != single batched %v", k, i, got, want)
					}
				}
				if got, want := se.OutputDenseKeys(), bat.OutputDenseKeys(); !slices.Equal(got, want) {
					t.Fatalf("K=%d: merged keys %v != single batched %v", k, got, want)
				}
				shTracker.Close(uint64(len(batches)))
				requireSameRecords(t, fmt.Sprintf("K=%d", k), shTracker, batTracker)
				se.Close()
			}
		})
	}
}

// TestBatchedStoryPipelineShardedConformance runs the full documents→stories
// pipeline in batch mode — threshold units and per-document deltas shipped
// whole — and checks that every shard count produces the identical lifecycle
// stream and story table, and that the planted stories are still recovered.
// TestDecayModeConformance checks the same batched lifecycle against the
// paper-literal per-pair sweep.
func TestBatchedStoryPipelineShardedConformance(t *testing.T) {
	docs := conformanceDocs(t, 7)
	engCfg := core.Config{T: 6.5, Nmax: 4}
	trkCfg := story.Config{MinCardinality: 3, Grace: 40} // grace in batch ticks ≈ docs

	run := func(t *testing.T, k int) (*loggedTracker, ReplayStats, ShardReplayStats) {
		agg := mustAggregator(NewSliceDocSource(docs), AggregatorConfig{EpochLength: 25, Decay: 0.7})
		tracker := newLoggedTracker(trkCfg)
		if k == 0 {
			eng := core.MustNew(engCfg)
			st, err := NewReplay(agg, eng, tracker).RunBatches(0, true)
			if err != nil {
				t.Fatal(err)
			}
			tracker.Close(uint64(st.Ticks))
			return tracker, st, ShardReplayStats{}
		}
		se := shard.MustNew(shard.Config{Shards: k, Engine: engCfg})
		defer se.Close()
		se.SetSeqSink(tracker)
		r := NewShardReplay(agg, se, nil)
		st, err := r.RunBatches(0, true)
		if err != nil {
			t.Fatal(err)
		}
		r.Flush()
		tracker.Close(uint64(st.Ticks))
		return tracker, ReplayStats{}, st
	}

	// The one fading path: each epoch is a rescaled threshold unit.
	t.Run("rescale", func(t *testing.T) {
		refTracker, refStats, _ := run(t, 0)
		if refStats.DecaySeg.Batches == 0 {
			t.Fatalf("batched pipeline saw no epoch ticks: %+v", refStats)
		}
		if refStats.Ticks >= refStats.Updates {
			t.Fatalf("coalescing did not reduce ticks: %d ticks for %d updates", refStats.Ticks, refStats.Updates)
		}
		if refTracker.Stats().Born == 0 {
			t.Fatal("batched pipeline bore no stories; fixture too weak")
		}
		for _, k := range []int{1, 2, 4} {
			shTracker, _, shStats := run(t, k)
			if shStats.Ticks != refStats.Ticks || shStats.Updates != refStats.Updates {
				t.Fatalf("K=%d: tick/update accounting diverged: %d/%d vs %d/%d",
					k, shStats.Ticks, shStats.Updates, refStats.Ticks, refStats.Updates)
			}
			requireSameRecords(t, fmt.Sprintf("K=%d", k), shTracker, refTracker)
		}
	})
}

// TestRunBatchesCoalescedMatchesSequential pins that the replay driver applies
// exactly the same updates whether it coalesces a slice source's chunks or
// processes them update by update, reports coherent tick counts, and ends
// at the same expanded output-dense set, the oracle's.
func TestRunBatchesCoalescedMatchesSequential(t *testing.T) {
	synth := SynthConfig{Vertices: 12, Updates: 500, Seed: 9, NegativeFraction: 0.3, MeanDelta: 1.5}
	engCfg := core.Config{T: 2, Nmax: 4}

	updates := MustSynthetic(synth)
	seqEng := core.MustNew(engCfg)
	seqStats, err := NewReplay(NewSliceSource(updates, 64), seqEng, nil).RunBatches(64, false)
	if err != nil {
		t.Fatal(err)
	}
	batEng := core.MustNew(engCfg)
	batStats, err := NewReplay(NewSliceSource(updates, 64), batEng, nil).RunBatches(64, true)
	if err != nil {
		t.Fatal(err)
	}
	if batStats.Updates != seqStats.Updates {
		t.Fatalf("batched replay processed %d updates, sequential %d", batStats.Updates, seqStats.Updates)
	}
	chunks := (synth.Updates + 63) / 64
	if batStats.Ticks != chunks || batStats.Batches != chunks || seqStats.Batches != chunks {
		t.Fatalf("batched ticks = %d, batches %d and %d, want %d chunks", batStats.Ticks, batStats.Batches, seqStats.Batches, chunks)
	}
	if seqStats.Ticks != seqStats.Updates {
		t.Fatalf("sequential ticks = %d, want %d (one per update)", seqStats.Ticks, seqStats.Updates)
	}
	// Which members of an ImplicitTooDense family are explicit depends on the
	// order of discovery, so the engines are compared expanded.
	cfg := batEng.Config()
	p := brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: brute.UniverseOf(updates)}
	oracle := brute.Keys(brute.EnumerateAll(batEng.Graph(), p))
	if len(oracle) == 0 {
		t.Fatal("no output-dense subgraphs at end of stream; fixture too weak")
	}
	for name, eng := range map[string]*core.Engine{"coalesced": batEng, "sequential": seqEng} {
		if got := brute.OutputDenseExpanded(eng, p); !slices.Equal(got, oracle) {
			t.Fatalf("%s: expanded set %v != oracle %v", name, got, oracle)
		}
	}
	if batEng.Stats().Batches == 0 {
		t.Fatal("batched replay drove no ProcessBatch calls")
	}
}
