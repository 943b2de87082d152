// Conformance of the names shard.New and NewShardReplay, which bench/par.go
// calls and which now run one core.Engine in the caller's goroutine: the
// numbered event stream a SeqSink receives, and the stream a sink handed to
// NewShardReplay receives instead, must reproduce the single engine bit for
// bit — events update for update (tick for tick in batch mode), the explicit
// OutputDenseKeys at every checkpoint, and the story lifecycle records and
// final story table driven from them. The single sequential reference is
// itself pinned to brute.EnumerateAll at the same checkpoints.
package stream

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/baseline/fade"
	"dyndens/internal/core"
	"dyndens/internal/shard"
	"dyndens/internal/story"
)

// seqFanOut forwards the numbered stream to several sinks.
type seqFanOut []shard.SeqSink

func (f seqFanOut) EmitSeq(ev shard.SeqEvent) {
	for _, s := range f {
		s.EmitSeq(ev)
	}
}

// seqRecorder groups the numbered stream by sequence number.
type seqRecorder struct {
	bySeq map[uint64][]core.Event
}

func (r *seqRecorder) EmitSeq(ev shard.SeqEvent) {
	if r.bySeq == nil {
		r.bySeq = make(map[uint64][]core.Event)
	}
	r.bySeq[ev.Seq] = append(r.bySeq[ev.Seq], ev.Event)
}

func (r *seqRecorder) tick(seq uint64) []core.Event { return r.bySeq[seq] }

// batchSource replays a fixed batch partition, one batch per NextBatch.
func batchSource(batches [][]core.Update) *fadeSource {
	groups := make([]fade.Group, len(batches))
	for i, b := range batches {
		groups[i] = fade.Group{Updates: b}
	}
	return &fadeSource{groups: groups}
}

// The matrix labels are kept from the former overlap policies; each now
// names one of the two ways events leave the names bench/par.go calls.
// "mirror" delivers through the SeqSink installed on shard.New's engine;
// "scoped" hands an ordinary sink to NewShardReplay, which replaces it.
var (
	matrixPaths  = []string{"mirror", "scoped"}
	matrixShards = []int{1, 2, 4, 8}
)

func TestOverlapConformanceMatrixSequential(t *testing.T) {
	const checkEvery = 50
	engCfg := core.Config{T: 2, Nmax: 4}
	updates, err := Synthetic(SynthConfig{
		Vertices:         10,
		Updates:          400,
		Seed:             51,
		NegativeFraction: 0.35,
		MeanDelta:        1.5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Single sequential reference: per-update events, checkpointed keys, an
	// oracle check per checkpoint, and a story tracker driven per update.
	ref := core.MustNew(engCfg)
	var sink core.CollectorSink
	ref.SetSink(&sink)
	refTracker := newLoggedTracker(trackerConfig)
	perSeq := make(map[uint64][]string)
	keysAt := make(map[int][]string)
	total := 0
	for i, u := range updates {
		ref.Process(u)
		evs := sink.Take()
		total += len(evs)
		if len(evs) > 0 {
			perSeq[uint64(i+1)] = canonKeys(evs)
		}
		for _, ev := range evs {
			refTracker.Emit(ev)
		}
		refTracker.EndUpdate()
		if (i+1)%checkEvery == 0 || i == len(updates)-1 {
			keysAt[i+1] = ref.OutputDenseKeys()
			cfg := ref.Config()
			p := brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: brute.UniverseOf(updates[:i+1])}
			oracle := brute.Keys(brute.EnumerateAll(ref.Graph(), p))
			if expanded := brute.OutputDenseExpanded(ref, p); !slices.Equal(expanded, oracle) {
				t.Fatalf("after %d updates: reference expanded set %v != oracle %v", i+1, expanded, oracle)
			}
		}
	}
	refTracker.Close(uint64(len(updates)))
	if total == 0 {
		t.Fatal("reference produced no events; fixture too weak")
	}

	for _, k := range matrixShards {
		for _, path := range matrixPaths {
			t.Run(fmt.Sprintf("K=%d/%s", k, path), func(t *testing.T) {
				se := mustShard(t, shard.Config{Shards: k, Engine: engCfg})
				defer se.Close()
				shTracker := newLoggedTracker(trackerConfig)
				var events func(seq uint64) []core.Event
				var sink core.EventSink // nil: the SeqSink path
				if path == "mirror" {
					rec := &seqRecorder{}
					se.SetSeqSink(seqFanOut{rec, shTracker})
					events = rec.tick
				} else {
					rec := &tickRecorder{}
					sink = core.MultiSink{rec, shTracker}
					events = func(seq uint64) []core.Event { return rec.ticks[seq-1] }
				}
				r := NewShardReplay(NewSliceSource(updates, checkEvery), se, sink)
				done := 0
				r.SetBoundaryHook(func() error {
					done = r.Stats().Updates
					if got := se.Engine().OutputDenseKeys(); !slices.Equal(got, keysAt[done]) {
						t.Fatalf("after %d updates: keys %v != reference %v", done, got, keysAt[done])
					}
					return nil
				})
				st, err := r.RunBatches(0, false)
				if err != nil {
					t.Fatal(err)
				}
				se.Flush()
				if done != len(updates) || st.Ticks != len(updates) {
					t.Fatalf("%d updates checked in %d ticks, want %d", done, st.Ticks, len(updates))
				}
				for i := range updates {
					seq := uint64(i + 1)
					if got, want := canonKeys(events(seq)), perSeq[seq]; !slices.Equal(got, want) {
						t.Fatalf("update %d: events %v != reference %v", seq, got, want)
					}
				}
				shTracker.Close(uint64(len(updates)))
				requireSameRecords(t, fmt.Sprintf("K=%d/%s", k, path), shTracker, refTracker)
			})
		}
	}
}

func TestOverlapConformanceMatrixBatched(t *testing.T) {
	engCfg := core.Config{T: 2, Nmax: 4}
	updates, err := Synthetic(SynthConfig{
		Vertices:         10,
		Updates:          400,
		Seed:             53,
		NegativeFraction: 0.35,
		MeanDelta:        1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := randomBatches(371, updates)

	// Single batched reference: per-tick net events and a tracker driven at
	// batch boundaries. The batched single engine is itself pinned to the
	// sequential engine by TestBatchConformance; here it anchors the matrix.
	bat := core.MustNew(engCfg)
	batTracker := newLoggedTracker(trackerConfig)
	rec := &tickRecorder{}
	bat.SetSink(core.MultiSink{rec, batTracker})
	for _, b := range batches {
		bat.ProcessBatch(b)
	}
	batTracker.Close(uint64(len(batches)))
	total := 0
	for _, tick := range rec.ticks {
		total += len(tick)
	}
	if total == 0 {
		t.Fatal("batched reference produced no events; fixture too weak")
	}

	for _, k := range matrixShards {
		for _, path := range matrixPaths {
			t.Run(fmt.Sprintf("K=%d/%s", k, path), func(t *testing.T) {
				se := mustShard(t, shard.Config{Shards: k, Engine: engCfg})
				defer se.Close()
				shTracker := newLoggedTracker(trackerConfig)
				var events func(seq uint64) []core.Event
				var sink core.EventSink // nil: the SeqSink path
				if path == "mirror" {
					shRec := &seqRecorder{}
					se.SetSeqSink(seqFanOut{shRec, shTracker})
					events = shRec.tick
				} else {
					shRec := &tickRecorder{}
					sink = core.MultiSink{shRec, shTracker}
					events = func(seq uint64) []core.Event { return shRec.ticks[seq-1] }
				}
				st, err := NewShardReplay(batchSource(batches), se, sink).RunBatches(0, true)
				if err != nil {
					t.Fatal(err)
				}
				se.Flush()
				if st.Ticks != len(batches) {
					t.Fatalf("%d ticks, want one per batch (%d)", st.Ticks, len(batches))
				}
				for i := range batches {
					got, want := canonKeys(events(uint64(i+1))), canonKeys(rec.ticks[i])
					if !slices.Equal(got, want) {
						t.Fatalf("batch %d: events %v != single batched %v", i, got, want)
					}
				}
				if got, want := se.Engine().OutputDenseKeys(), bat.OutputDenseKeys(); !slices.Equal(got, want) {
					t.Fatalf("keys %v != single batched %v", got, want)
				}
				shTracker.Close(uint64(len(batches)))
				requireSameRecords(t, fmt.Sprintf("K=%d/%s", k, path), shTracker, batTracker)

				stats := se.Stats()
				if stats.MeanDeliveryFraction() != 1.0 {
					t.Fatalf("delivery fraction %v, want 1.0", stats.MeanDeliveryFraction())
				}
				if stats.MergedEvents != uint64(total) || st.Events != uint64(total) {
					t.Fatalf("delivered %d events, replay counted %d, single batched emitted %d", stats.MergedEvents, st.Events, total)
				}
			})
		}
	}
}

// TestShardedConformance is the oracle-backed conformance suite for
// shard.New: for K ∈ {1, 2, 4} the numbered event stream must be identical,
// update for update (after canonical sorting within each update), to the
// single-threaded engine's output on the same seeded stream — and every
// crossValInterval updates both must agree with brute.EnumerateAll and with
// each other's result set.
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
				se := mustShard(t, shard.Config{Shards: k, Engine: core.Config{T: 2, Nmax: 4}})
				defer se.Close()
				var merged seqRecorder
				se.SetSeqSink(&merged)

				totalSingle := 0
				for step := 0; step < len(updates); step += crossValInterval {
					end := min(step+crossValInterval, len(updates))
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
						wantEvs, got := want[seq], merged.tick(seq)
						if len(got) != len(wantEvs) {
							t.Fatalf("update %d: numbered stream has %d events, single %d", seq, len(got), len(wantEvs))
						}
						if len(wantEvs) == 0 {
							continue
						}
						gotCanon, wantCanon := canonKeys(got), canonKeys(wantEvs)
						if !slices.Equal(gotCanon, wantCanon) {
							t.Fatalf("update %d: events %v != single engine %v", seq, gotCanon, wantCanon)
						}
						// Scores must match up to float accumulation noise.
						byKey := make(map[string]core.Event, len(wantEvs))
						for _, ev := range wantEvs {
							byKey[canonKeys([]core.Event{ev})[0]] = ev
						}
						for _, ev := range got {
							ref := byKey[canonKeys([]core.Event{ev})[0]]
							if math.Abs(ev.Score-ref.Score) > 1e-6 {
								t.Fatalf("update %d: score for %v diverged: %g vs %g", seq, ev.Set, ev.Score, ref.Score)
							}
						}
					}

					// Oracle checkpoint: single engine vs brute, the engine
					// behind the names vs the single engine.
					checkAgainstOracle(t, single, updates, end)
					if got, want := se.Engine().OutputDenseKeys(), single.OutputDenseKeys(); !slices.Equal(got, want) {
						t.Fatalf("after %d updates: tracked set %v != single engine %v", end, got, want)
					}
				}
				if totalSingle == 0 {
					t.Fatal("stream produced no events; conformance exercised nothing")
				}
				st := se.Stats()
				if int(st.MergedEvents) != totalSingle {
					t.Fatalf("delivered %d events, single engine emitted %d", st.MergedEvents, totalSingle)
				}
				if st.DedupedEvents != 0 {
					t.Fatalf("K=%d deduplicated %d events", k, st.DedupedEvents)
				}
			})
		}
	}
}

// TestShardReplayMatchesReplay drives the same seeded stream through
// NewReplay on a plain engine and NewShardReplay on shard.New's engine with a
// counting sink, and checks both report the same updates, ticks and events,
// that the sink saw every event, and that the result sets agree.
func TestShardReplayMatchesReplay(t *testing.T) {
	synth := SynthConfig{Vertices: 12, Updates: 600, Seed: 21, NegativeFraction: 0.3, MeanDelta: 1.5}
	engCfg := core.Config{T: 2, Nmax: 4}

	updates := MustSynthetic(synth)
	eng := core.MustNew(engCfg)
	refStats, err := NewReplay(NewSliceSource(updates, 64), eng, nil).RunBatches(64, false)
	if err != nil {
		t.Fatal(err)
	}

	se := mustShard(t, shard.Config{Shards: 4, Engine: engCfg})
	defer se.Close()
	var counter core.CountingSink
	r := NewShardReplay(NewSliceSource(updates, 64), se, &counter)
	st, err := r.RunBatches(64, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != refStats.Updates || st.Ticks != refStats.Ticks || st.Batches != refStats.Batches {
		t.Fatalf("shard replay: %d updates, %d ticks, %d batches; replay %d, %d, %d",
			st.Updates, st.Ticks, st.Batches, refStats.Updates, refStats.Ticks, refStats.Batches)
	}
	if st.Events != refStats.Events || st.Events == 0 {
		t.Fatalf("shard replay counted %d events, replay %d", st.Events, refStats.Events)
	}
	if counter.Total() != st.Events || se.Stats().MergedEvents != st.Events {
		t.Fatalf("sink saw %d events, engine delivered %d, stats report %d", counter.Total(), se.Stats().MergedEvents, st.Events)
	}
	if st.Elapsed <= 0 || st.UpdatesPerSecond() <= 0 {
		t.Fatalf("degenerate timing stats: %+v", st)
	}
	if !slices.Equal(se.Engine().OutputDenseKeys(), eng.OutputDenseKeys()) {
		t.Fatalf("result sets differ: %v vs %v", se.Engine().OutputDenseKeys(), eng.OutputDenseKeys())
	}
}

// TestBatchedStoryPipelineShardedConformance runs the full documents→stories
// pipeline in batch mode — threshold units and per-document deltas shipped
// whole — through shard.New and NewShardReplay with the tracker as SeqSink,
// and checks that every Shards value produces the lifecycle stream and story
// table of the plain engine. TestDecayModeConformance checks the same batched
// lifecycle against the paper-literal per-pair sweep.
func TestBatchedStoryPipelineShardedConformance(t *testing.T) {
	docs := conformanceDocs(t, 7)
	engCfg := core.Config{T: 6.5, Nmax: 4}
	trkCfg := story.Config{MinCardinality: 3, Grace: 40} // grace in batch ticks ≈ docs

	run := func(t *testing.T, k int) (*loggedTracker, ReplayStats) {
		agg := mustAggregator(NewSliceDocSource(docs), AggregatorConfig{EpochLength: 25, Decay: 0.7})
		tracker := newLoggedTracker(trkCfg)
		if k == 0 {
			st, err := NewReplay(agg, core.MustNew(engCfg), tracker).RunBatches(0, true)
			if err != nil {
				t.Fatal(err)
			}
			tracker.Close(uint64(st.Ticks))
			return tracker, st
		}
		se := mustShard(t, shard.Config{Shards: k, Engine: engCfg})
		defer se.Close()
		se.SetSeqSink(tracker)
		st, err := NewShardReplay(agg, se, nil).RunBatches(0, true)
		if err != nil {
			t.Fatal(err)
		}
		se.Flush()
		tracker.Close(uint64(st.Ticks))
		return tracker, st
	}

	// The one fading path: each epoch is a rescaled threshold unit.
	t.Run("rescale", func(t *testing.T) {
		refTracker, refStats := run(t, 0)
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
			shTracker, shStats := run(t, k)
			if shStats.Ticks != refStats.Ticks || shStats.Updates != refStats.Updates {
				t.Fatalf("K=%d: tick/update accounting diverged: %d/%d vs %d/%d",
					k, shStats.Ticks, shStats.Updates, refStats.Ticks, refStats.Updates)
			}
			requireSameRecords(t, fmt.Sprintf("K=%d", k), shTracker, refTracker)
		}
	})
}

// TestDecayModeShardedConformance pins the rescaled pipeline behind the names
// bench/par.go calls: each threshold epoch unit is one numbered unit, so
// K ∈ {1, 4} must reproduce the single rescaled engine's story lifecycle and
// table exactly.
func TestDecayModeShardedConformance(t *testing.T) {
	docs := conformanceDocs(t, 7)
	aggCfg := AggregatorConfig{EpochLength: 25, Decay: 0.7}
	engCfg := core.Config{T: 6.5, Nmax: 4}
	trkCfg := story.Config{MinCardinality: 3, Grace: 40}

	ref := runDecayConfPipeline(t, mustAggregator(NewSliceDocSource(docs), aggCfg), engCfg, true)
	if ref.tracker.Stats().Born == 0 {
		t.Fatal("reference bore no stories; fixture too weak")
	}
	for _, k := range []int{1, 4} {
		agg := mustAggregator(NewSliceDocSource(docs), aggCfg)
		se := mustShard(t, shard.Config{Shards: k, Engine: engCfg})
		tracker := newLoggedTracker(trkCfg)
		se.SetSeqSink(tracker)
		st, err := NewShardReplay(agg, se, nil).RunBatches(0, true)
		if err != nil {
			t.Fatal(err)
		}
		se.Flush()
		tracker.Close(uint64(st.Ticks))
		if st.Ticks != ref.stats.Ticks {
			t.Fatalf("K=%d: %d ticks, single %d", k, st.Ticks, ref.stats.Ticks)
		}
		if se.Stats().Aggregate.ThresholdTicks == 0 {
			t.Fatalf("K=%d: no threshold units reached the engine", k)
		}
		requireSameRecords(t, fmt.Sprintf("K=%d", k), tracker, ref.tracker)
		se.Close()
	}
}
