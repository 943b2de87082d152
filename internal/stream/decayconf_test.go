// The fading conformance suite: the evidence that the O(1) rescaled decay
// representation (normalized weights + threshold units) is an optimization,
// not an approximation.
//
// The reference is internal/baseline/fade, the paper-literal sweep: it stores
// real weights and emits one negative delta per tracked pair each epoch. The
// aggregator stores w' = w/λ and moves the engine's threshold to T/λ instead.
// Uniform scaling preserves every density ratio, so the suite pins:
//
//   - batch structure: both emit identical group sequences (one epoch group
//     per epoch crossing, one group per document), so batched replays are
//     tick-aligned and the story pipeline — whose records carry no floats —
//     must produce DEEP-EQUAL lifecycle records and story tables, single and
//     sharded (K ∈ {1, 4});
//   - end state: the expanded output-dense vertex sets must agree across all
//     four drive modes (sweep sequential, sweep batched, rescaled
//     uncoalesced, rescaled batched), and match brute.EnumerateAll on the
//     engine's own (normalized) graph;
//   - units: rescaled emitted densities are real-unit (the engine multiplies
//     by λ at the emit boundary) and equal the sweep's to float tolerance;
//   - retirement: the lazy expiry queue must retire exactly the pairs the
//     sweep retires, at the same epoch, over randomized add/decay schedules
//     with multi-epoch time jumps;
//   - scale: multiplying DocWeight, PruneBelow and T by one power of two
//     leaves the story pipeline's output unchanged at any magnitude.
package stream

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/baseline/fade"
	"dyndens/internal/core"
	"dyndens/internal/density"
	"dyndens/internal/shard"
	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// relClose reports |a-b| within rel·max(|a|,|b|) (or both zero).
func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// fadeConfig is the reference schedule of an aggregator configuration, with
// the aggregator's defaults applied.
func fadeConfig(c AggregatorConfig) fade.Config {
	c = c.withDefaults()
	return fade.Config{EpochLength: c.EpochLength, Decay: c.Decay, DocWeight: c.DocWeight, PruneBelow: c.PruneBelow}
}

// fadeSource replays a reference stream in the aggregator's batch structure,
// each epoch sweep as a Decay batch.
type fadeSource struct{ groups []fade.Group }

func (s *fadeSource) NextBatch() (Batch, error) {
	if len(s.groups) == 0 {
		return Batch{}, io.EOF
	}
	g := s.groups[0]
	s.groups = s.groups[1:]
	return Batch{Updates: g.Updates, Decay: g.Epoch}, nil
}

// conformanceDocs is the conformance document workload: three planted
// stories over skewed background chatter.
func conformanceDocs(t *testing.T, seed int64) []Document {
	t.Helper()
	docs, err := DrainDocs(MustDocSynthetic(DocSynthConfig{
		BackgroundEntities: 30,
		Stories:            3,
		StorySize:          4,
		Docs:               600,
		Seed:               seed,
		BackgroundSkew:     1.1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// decayConfPipeline is one full documents→stories drive.
type decayConfPipeline struct {
	eng     *core.Engine
	tracker *loggedTracker
	stats   ReplayStats
}

func runDecayConfPipeline(t *testing.T, src BatchSource, engCfg core.Config, coalesce bool) *decayConfPipeline {
	t.Helper()
	p := &decayConfPipeline{
		eng:     core.MustNew(engCfg),
		tracker: newLoggedTracker(story.Config{MinCardinality: 3, Grace: 40}),
	}
	var err error
	if p.stats, err = NewReplay(src, p.eng, p.tracker).RunBatches(0, coalesce); err != nil {
		t.Fatal(err)
	}
	p.tracker.Close(uint64(p.stats.Ticks))
	return p
}

// sweepUniverse is the vertex universe of an engine fed the reference stream
// ref, or the aggregator's equivalent of it: brute.UniverseOf its updates.
func sweepUniverse(ref fade.Stream) []vset.Vertex {
	var all []Update
	for _, g := range ref.Groups {
		all = append(all, g.Updates...)
	}
	return brute.UniverseOf(all)
}

// expandedKeys is the representation-independent result set: the expanded
// output-dense subgraphs' canonical keys over the vertex universe u, sorted.
func expandedKeys(eng *core.Engine, u []vset.Vertex) []string {
	cfg := eng.Config()
	return brute.OutputDenseExpanded(eng, brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: u})
}

// TestDecayModeConformance drives the same randomized document workload
// through the sweep and the aggregator, each sequential and batched, and
// checks the contracts in the package comment. Decay 0.7 with PruneBelow
// defaulted retires pairs continuously, so the lazy heap, the threshold
// units, and the cancellation path are all exercised on every seed.
func TestDecayModeConformance(t *testing.T) {
	engCfg := core.Config{T: 6.5, Nmax: 4}
	aggCfg := AggregatorConfig{EpochLength: 25, Decay: 0.7}
	for seed := int64(7); seed <= 9; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			docs := conformanceDocs(t, seed)
			ref := fade.Sweep(docs, fadeConfig(aggCfg))
			sweepSeq := runDecayConfPipeline(t, &fadeSource{ref.Groups}, engCfg, false)
			sweepBat := runDecayConfPipeline(t, &fadeSource{ref.Groups}, engCfg, true)
			rescaleSeq := runDecayConfPipeline(t, mustAggregator(NewSliceDocSource(docs), aggCfg), engCfg, false)
			agg := mustAggregator(NewSliceDocSource(docs), aggCfg)
			rescaleBat := runDecayConfPipeline(t, agg, engCfg, true)

			if agg.Stats().ThresholdUpdates == 0 {
				t.Fatal("rescaled drive emitted no threshold units; fixture too weak")
			}
			if ref.Retired == 0 {
				t.Fatal("workload retired no pairs; fixture too weak")
			}
			if got, want := agg.Stats().Retired, ref.Retired; got != want {
				t.Fatalf("aggregator retired %d pairs, sweep %d", got, want)
			}

			// Tick alignment: the batched drives must agree on batch structure —
			// and therefore on the float-free story lifecycle, exactly.
			if sweepBat.stats.Ticks != rescaleBat.stats.Ticks {
				t.Fatalf("batched tick counts diverge: sweep %d, rescale %d", sweepBat.stats.Ticks, rescaleBat.stats.Ticks)
			}
			requireSameRecords(t, "sweep-batched vs rescale-batched", rescaleBat.tracker, sweepBat.tracker)

			// End state: expanded output-dense sets agree across all four
			// drives and match the brute oracle on each engine's own graph
			// (normalized units for the rescaled engines — the oracle scales
			// with the graph it is given).
			u := sweepUniverse(ref)
			want := expandedKeys(sweepSeq.eng, u)
			if len(want) == 0 {
				t.Fatal("no dense subgraphs at end of stream; fixture too weak")
			}
			for name, p := range map[string]*decayConfPipeline{
				"sweep-sequential": sweepSeq, "sweep-batched": sweepBat, "rescale-uncoalesced": rescaleSeq, "rescale-batched": rescaleBat,
			} {
				if got := expandedKeys(p.eng, u); !slices.Equal(got, want) {
					t.Fatalf("%s: expanded dense set %v != sweep sequential %v", name, got, want)
				}
				cfg := p.eng.Config()
				oracle := brute.Keys(brute.EnumerateAll(p.eng.Graph(), brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: u}))
				if got := expandedKeys(p.eng, u); !slices.Equal(got, oracle) {
					t.Fatalf("%s: expanded dense set %v != oracle %v", name, got, oracle)
				}
			}

			// Units: the rescaled engine's λ equals the aggregator's, and
			// reported densities are real-unit.
			lambda := agg.lambda
			if got := rescaleBat.eng.DecayScale(); got != lambda {
				t.Fatalf("engine λ %v != aggregator λ %v", got, lambda)
			}
			if lambda >= 1 {
				t.Fatalf("λ = %v after %d epochs; decay never applied", lambda, agg.Stats().Epochs)
			}
			sweepDens := map[string]float64{}
			for _, s := range sweepBat.eng.OutputDense() {
				sweepDens[s.Set.Key()] = s.Density
			}
			for _, s := range rescaleBat.eng.OutputDense() {
				want, ok := sweepDens[s.Set.Key()]
				if !ok {
					t.Fatalf("rescaled output-dense %s absent from the sweep engine", s.Set.Key())
				}
				if !relClose(s.Density, want, 1e-6) {
					t.Fatalf("density of %s: rescaled %v != sweep %v", s.Set.Key(), s.Density, want)
				}
			}
			// Threshold identity: normalized T = baseT/λ.
			if got, want := rescaleBat.eng.Config().T, engCfg.T/lambda; !relClose(got, want, 1e-9) {
				t.Fatalf("normalized threshold %v != baseT/λ = %v", got, want)
			}
		})
	}
}

// TestScaleInvariance is the oracle-free metamorphic check: the story
// pipeline's output depends on the weights only relative to T, so
// multiplying DocWeight, PruneBelow and T by one power of two (exact in
// floating point) must leave the lifecycle records, the story table and the
// expanded dense set identical, down to 2⁻⁴⁰⁰ and up to 2⁴⁰⁰.
func TestScaleInvariance(t *testing.T) {
	docs := conformanceDocs(t, 7)
	u := sweepUniverse(fade.Sweep(docs, fadeConfig(AggregatorConfig{EpochLength: 25, Decay: 0.7})))
	run := func(c float64, coalesce bool) *decayConfPipeline {
		agg := mustAggregator(NewSliceDocSource(docs), AggregatorConfig{EpochLength: 25, Decay: 0.7, DocWeight: c, PruneBelow: 1e-3 * c})
		return runDecayConfPipeline(t, agg, core.Config{T: 6.5 * c, Nmax: 4}, coalesce)
	}
	for _, coalesce := range []bool{false, true} {
		want := run(1, coalesce)
		if want.tracker.Stats().Born == 0 {
			t.Fatal("reference bore no stories; fixture too weak")
		}
		for _, c := range []float64{0x1p-400, 0x1p-40, 0x1p400} {
			got := run(c, coalesce)
			label := fmt.Sprintf("c=%g coalesce=%v", c, coalesce)
			requireSameRecords(t, label, got.tracker, want.tracker)
			if g, w := expandedKeys(got.eng, u), expandedKeys(want.eng, u); !slices.Equal(g, w) {
				t.Fatalf("%s: expanded dense set %v != %v", label, g, w)
			}
		}
	}
}

// TestDecayModeShardedConformance pins the sharded rescaled pipeline: the
// threshold epoch unit is broadcast to every worker as one sequenced batch,
// so K ∈ {1, 4} must reproduce the single rescaled engine's story lifecycle
// and table exactly, in both overlap policies.
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
		for _, ov := range []shard.Overlap{shard.OverlapScoped, shard.OverlapMirror} {
			agg := mustAggregator(NewSliceDocSource(docs), aggCfg)
			se := shard.MustNew(shard.Config{Shards: k, Engine: engCfg, Overlap: ov})
			tracker := newLoggedTracker(trkCfg)
			se.SetSeqSink(tracker)
			r := NewShardReplay(agg, se, nil)
			st, err := r.RunBatches(0, true)
			if err != nil {
				t.Fatal(err)
			}
			r.Flush()
			tracker.Close(uint64(st.Ticks))
			if st.Ticks != ref.stats.Ticks {
				t.Fatalf("K=%d %s: %d ticks, single %d", k, ov, st.Ticks, ref.stats.Ticks)
			}
			requireSameRecords(t, fmt.Sprintf("K=%d %s", k, ov), tracker, ref.tracker)
			se.Close()
		}
	}
}

// retireSchedule is one randomized document schedule for
// TestRescaleRetirementMatchesExactSweep: two-entity documents over a small
// vertex set, mostly in the same epoch, 30% one epoch later and 10% 2–5
// epochs later.
type retireSchedule struct {
	name     string
	seed     int64
	vertices int                         // entities are drawn from [0, vertices)
	decay    float64                     // per-epoch fading factor
	gapAt    int                         // document index preceded by a 1000-epoch gap; 0 for none
	check    func(AggregatorStats) error // what the schedule must have exercised
}

func (sc retireSchedule) docs() []Document {
	rng := rand.New(rand.NewSource(sc.seed))
	var docs []Document
	now := int64(0)
	for i := 0; i < 400; i++ {
		switch r := rng.Float64(); {
		case r < 0.30:
			now += 10
		case r < 0.40:
			now += 10 * int64(2+rng.Intn(4))
		}
		if i > 0 && i == sc.gapAt {
			now += 10 * 1000
		}
		a := vset.Vertex(rng.Intn(sc.vertices))
		b := vset.Vertex(rng.Intn(sc.vertices))
		for b == a {
			b = vset.Vertex(rng.Intn(sc.vertices))
		}
		docs = append(docs, Document{Time: now, Entities: vset.New(a, b)})
	}
	return docs
}

// TestRescaleRetirementMatchesExactSweep is the lazy-retirement property
// test: over randomized document schedules — bursty pair adds, single- and
// multi-epoch time jumps, re-added pairs that invalidate queued entries — the
// aggregator must retire exactly the pairs the reference sweep retires, in
// the same epoch batch, and the surviving weights must agree in real units.
// The aggregator side is mirrored purely from its emitted update stream, so
// the test also pins that its cancellations telescope to exact zero in
// normalized units. The sweep side tracks the sweep's own weights
// (fade.Stream.After): below a decay of ½ the sweep's deltas need not sum to
// its faded weights, and that is a property of the reference, not of the
// aggregator. Beyond the base schedules (seed=N), four families stress the
// two parts of the retirement queue: pairs re-mentioned over many epochs, so
// most pops are heap re-keys rather than first-time entries; a 1000-epoch
// document gap, which the tick clamps at maxTickFade and which folds; a
// steep decay that folds λ mid-stream under live first-time runs; and the
// steep decays 0.1 and 0.3 a user may pass to the CLI.
func TestRescaleRetirementMatchesExactSweep(t *testing.T) {
	var schedules []retireSchedule
	for seed := int64(1); seed <= 5; seed++ {
		schedules = append(schedules, retireSchedule{name: fmt.Sprintf("seed=%d", seed), seed: seed, vertices: 12, decay: 0.5})
	}
	for seed := int64(1); seed <= 3; seed++ {
		schedules = append(schedules,
			retireSchedule{name: fmt.Sprintf("rekeys/seed=%d", seed), seed: seed, vertices: 6, decay: 0.9,
				check: func(st AggregatorStats) error {
					if rekeys := st.EpochPairTouches - st.Retired; rekeys <= st.Retired {
						return fmt.Errorf("%d re-keys for %d retirements: most pops must be re-keys", rekeys, st.Retired)
					}
					return nil
				}},
			retireSchedule{name: fmt.Sprintf("gap/seed=%d", seed), seed: seed, vertices: 12, decay: 0.5, gapAt: 200,
				check: func(st AggregatorStats) error {
					if st.Renorms == 0 {
						return fmt.Errorf("the gap did not fold: %+v", st)
					}
					return nil
				}},
			retireSchedule{name: fmt.Sprintf("fold/seed=%d", seed), seed: seed, vertices: 12, decay: 0x1p-4,
				check: func(st AggregatorStats) error {
					if st.Renorms == 0 {
						return fmt.Errorf("no fold: %+v", st)
					}
					return nil
				}},
			retireSchedule{name: fmt.Sprintf("decay=0.1/seed=%d", seed), seed: seed, vertices: 12, decay: 0.1},
			retireSchedule{name: fmt.Sprintf("decay=0.3/seed=%d", seed), seed: seed, vertices: 12, decay: 0.3},
		)
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			docs := sc.docs()
			cfg := AggregatorConfig{EpochLength: 10, Decay: sc.decay, PruneBelow: 0.05}

			// mirror applies a stream's batches, recording the pairs each epoch
			// batch retires (takes to exactly zero), in emission order. after,
			// when non-nil, gives each pair's new weight; otherwise the deltas
			// are summed.
			type mirror struct {
				weights map[[2]core.Vertex]float64
				batches [][]string
			}
			apply := func(m *mirror, updates []Update, after []float64, epoch bool) {
				var retired []string
				for i, u := range updates {
					k := [2]core.Vertex{u.A, u.B}
					if after != nil {
						m.weights[k] = after[i]
					} else {
						m.weights[k] += u.Delta
					}
					if epoch && m.weights[k] == 0 {
						delete(m.weights, k)
						retired = append(retired, fmt.Sprintf("%d-%d", u.A, u.B))
					}
				}
				if epoch {
					m.batches = append(m.batches, retired)
				}
			}

			ref := fade.Sweep(docs, fadeConfig(cfg))
			exact := &mirror{weights: map[[2]core.Vertex]float64{}}
			for _, g := range ref.Groups {
				apply(exact, g.Updates, g.After, g.Epoch)
			}
			agg := mustAggregator(NewSliceDocSource(docs), cfg)
			batches, err := recordBatches(agg)
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			rescale := &mirror{weights: map[[2]core.Vertex]float64{}}
			for _, b := range batches {
				apply(rescale, b.updates, nil, b.decay)
				// A fold relabels the stored weights after the tick's
				// cancellations, as the engine's graph does.
				if b.threshold != nil {
					if _, k := density.Fold(b.threshold.Scale); k != 0 {
						for key, w := range rescale.weights {
							rescale.weights[key] = math.Ldexp(w, k)
						}
					}
				}
			}
			// Real units for comparison: the rescaled mirror holds normalized
			// weights.
			for k, w := range rescale.weights {
				rescale.weights[k] = w * agg.lambda
			}
			rescaleStats := agg.Stats()

			if ref.Retired == 0 {
				t.Fatal("schedule retired no pairs; fixture too weak")
			}
			if rescaleStats.Retired != ref.Retired {
				t.Fatalf("retired counts diverge: rescale %d, sweep %d", rescaleStats.Retired, ref.Retired)
			}
			if len(rescale.batches) != len(exact.batches) {
				t.Fatalf("epoch batch counts diverge: rescale %d, sweep %d", len(rescale.batches), len(exact.batches))
			}
			for i := range exact.batches {
				if !slices.Equal(rescale.batches[i], exact.batches[i]) {
					t.Fatalf("epoch batch %d: rescale retired %v, sweep retired %v", i, rescale.batches[i], exact.batches[i])
				}
			}
			if len(rescale.weights) != len(exact.weights) {
				t.Fatalf("surviving pair counts diverge: rescale %d, sweep %d", len(rescale.weights), len(exact.weights))
			}
			for k, want := range exact.weights {
				if got, ok := rescale.weights[k]; !ok || !relClose(got, want, 1e-9) {
					t.Fatalf("pair %v: rescaled real weight %v != sweep %v", k, rescale.weights[k], want)
				}
			}
			// The whole point: the rescaled drain touched only expiring pairs,
			// the sweep touched every tracked pair every epoch.
			if rescaleStats.EpochPairTouches >= ref.Touches {
				t.Fatalf("rescaled touches %d not below the sweep's %d", rescaleStats.EpochPairTouches, ref.Touches)
			}
			// Each touch is either a confirmed retirement or a stale-high
			// re-key (the pair gained weight after its entry was pushed, so
			// the entry fires early once). Re-keys are bounded by pair
			// additions — amortized O(1) per update, never O(E) per epoch.
			if rescaleStats.EpochPairTouches < rescaleStats.Retired {
				t.Fatalf("rescaled touches %d below retirements %d", rescaleStats.EpochPairTouches, rescaleStats.Retired)
			}
			if extra := rescaleStats.EpochPairTouches - rescaleStats.Retired; extra > rescaleStats.PairUpdates {
				t.Fatalf("%d stale re-keys exceed %d pair additions", extra, rescaleStats.PairUpdates)
			}
			if sc.check != nil {
				if err := sc.check(rescaleStats); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRescaleEpochIsO1AndAllocFree pins the tentpole's cost model: with no
// retirements due, a rescaled decay epoch touches zero per-pair state no
// matter how many pairs are tracked (EpochPairTouches stays flat) and the
// whole NextBatch cycle — epoch tick plus next document — allocates nothing
// in steady state.
func TestRescaleEpochIsO1AndAllocFree(t *testing.T) {
	// 190 tracked background pairs, all far above PruneBelow; then one doc per
	// epoch on a fixed pair so every ingest crosses an epoch boundary.
	var docs []Document
	var warm []vset.Vertex
	for v := 0; v < 20; v++ {
		warm = append(warm, vset.Vertex(v))
	}
	docs = append(docs, Document{Time: 0, Entities: vset.New(warm...)})
	const epochs = 160
	for i := 1; i <= epochs; i++ {
		docs = append(docs, Document{Time: int64(10 * i), Entities: vset.New(0, 1)})
	}
	agg := mustAggregator(NewSliceDocSource(docs), AggregatorConfig{
		EpochLength: 10, Decay: 0.99, DocWeight: 1000, PruneBelow: 1e-3,
	})
	// Warmup: the clique doc (buffer growth) plus a few full epoch cycles
	// (decay group + document group each).
	if _, err := agg.NextBatch(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := agg.NextBatch(); err != nil {
			t.Fatal(err)
		}
	}
	touchesBefore := agg.Stats().EpochPairTouches
	allocs := testing.AllocsPerRun(50, func() {
		// One epoch tick (decay group) + one document group.
		if _, err := agg.NextBatch(); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.NextBatch(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("rescaled epoch cycle performed %v allocs/run, want 0", allocs)
	}
	st := agg.Stats()
	if st.EpochPairTouches != touchesBefore {
		t.Errorf("no-retirement epochs touched %d pairs, want 0 (was %d, now %d)",
			st.EpochPairTouches-touchesBefore, touchesBefore, st.EpochPairTouches)
	}
	if st.TrackedPairs < 150 {
		t.Fatalf("only %d tracked pairs; fixture too weak for an O(1)-vs-O(E) claim", st.TrackedPairs)
	}
	if st.ThresholdUpdates == 0 {
		t.Fatal("no threshold units emitted; epochs did not tick")
	}
}

// TestRescaleRenormalization forces λ under the fold floor with a brutal
// per-epoch decay and checks the full pipeline survives it: each fold
// relabels the stored weights by a power of two and restarts λ in [½, 1), no
// delta but retirements crosses to the engine, the engine folds at the same
// units to the same scale, and its graph still equals the aggregator's
// weights exactly.
func TestRescaleRenormalization(t *testing.T) {
	// Decay 1e-40 per epoch: λ crosses 1e-150 on every 4th epoch tick.
	var docs []Document
	for i := 0; i <= 8; i++ {
		docs = append(docs, Document{Time: int64(10 * i), Entities: vset.New(0, 1, 2)})
	}
	aggCfg := AggregatorConfig{EpochLength: 10, Decay: 1e-40, PruneBelow: -1}
	agg := mustAggregator(NewSliceDocSource(docs), aggCfg)
	eng := core.MustNew(core.Config{T: 2, Nmax: 4})
	if _, err := NewReplay(agg, eng, nil).RunBatches(0, true); err != nil {
		t.Fatal(err)
	}
	st := agg.Stats()
	if st.Renorms != 2 || st.DecayUpdates != 0 {
		t.Fatalf("want 2 folds and no decay update: %+v (λ=%v)", st, agg.lambda)
	}
	if agg.lambda < 1e-150 || agg.lambda >= 1 {
		t.Fatalf("λ = %v left below the fold floor", agg.lambda)
	}
	if got, want := eng.DecayScale(), agg.lambda; got != want {
		t.Fatalf("engine λ %v != aggregator λ %v", got, want)
	}
	for _, pair := range [][2]core.Vertex{{0, 1}, {0, 2}, {1, 2}} {
		want := pairWeight(agg, pair[0], pair[1])
		if got := eng.Graph().Weight(pair[0], pair[1]); got != want || want == 0 {
			t.Fatalf("edge %v: engine weight %v, aggregator %v", pair, got, want)
		}
	}
}
