package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"dyndens/internal/density"
)

// walkRun drives one engine through a random walk over Process, ProcessBatch,
// ProcessThresholdBatch, and threshold units that move T by ×1.1 and ×0.9 on
// ten vertices, with the output-dense key set the engine's events describe
// beside it.
type walkRun struct {
	rng    *rand.Rand
	e      *Engine
	scale  float64         // cumulative decay scale handed to ProcessThresholdBatch
	keys   map[string]bool // the explicit output-dense set, as the events apply it
	ceased int             // CeasedOutputDense events emitted by decreases
	seen   universe        // the vertex universe of the updates applied
}

// update draws one edge update relative to the threshold in force, so the
// regime holds however far the scale has moved the normalised units.
func (r *walkRun) update() Update {
	a, b := Vertex(r.rng.Intn(10)), Vertex(r.rng.Intn(9))
	if b >= a {
		b++
	}
	d := (0.05 + 1.5*r.rng.Float64()) * r.e.Config().T
	if r.rng.Intn(10) < 3 {
		d = -d
	}
	return Update{A: a, B: b, Delta: d}
}

// step applies one random unit, folds its events into keys, and returns its
// description and whether it lowered the threshold without changing a weight.
func (r *walkRun) step() (string, bool) {
	var evs []Event
	desc, decrease := "", false
	switch k := r.rng.Intn(20); {
	case k < 9:
		u := r.update()
		r.seen.add(u)
		evs, desc = collect(r.e, func() { r.e.Process(u) }), fmt.Sprintf("Process %v", u)
	case k < 14:
		batch := make([]Update, 1+r.rng.Intn(6))
		for i := range batch {
			batch[i] = r.update()
		}
		r.seen.add(batch...)
		evs, desc = collect(r.e, func() { r.e.ProcessBatch(batch) }), fmt.Sprintf("ProcessBatch %v", batch)
	case k < 17:
		var retire []Update
		if r.rng.Intn(4) == 0 {
			r.scale /= 0.93
			decrease = true
		} else {
			r.scale *= 0.93
			for i := r.rng.Intn(3); i > 0; i-- {
				u := r.update()
				u.Delta = -r.e.Graph().Weight(u.A, u.B)
				retire = append(retire, u)
			}
		}
		evs = collect(r.e, func() { r.e.ProcessThresholdBatch(r.scale, retire) })
		desc = fmt.Sprintf("ProcessThresholdBatch %v %v", r.scale, retire)
	default:
		f := 1.1
		if decrease = k < 19; decrease {
			f = 0.9
		}
		r.scale /= f
		evs = collect(r.e, func() { r.e.ProcessThresholdBatch(r.scale, nil) })
		desc = fmt.Sprintf("ProcessThresholdBatch %v (T ×%v)", r.scale, f)
	}
	for _, ev := range evs {
		if ev.Kind == BecameOutputDense {
			r.keys[ev.Set.Key()] = true
		} else {
			delete(r.keys, ev.Set.Key())
			if decrease {
				r.ceased++
			}
		}
	}
	return desc, decrease
}

// TestThresholdWalkMatchesBrute is the walk that found the incremental
// decrease incomplete (TestThresholdDecreaseExistingStarsMissEdgeMembers),
// run against the rebuild: the expanded output-dense set equals
// brute.EnumerateAll and the index is valid after every step, and every
// decrease leaves valid certificates and the index a fresh engine under the
// new schedule builds from one batch of the graph's edges, reports exactly
// the change to the explicit output-dense set, and keeps every expanded
// output-dense set of before. The seeds run in parallel.
func TestThresholdWalkMatchesBrute(t *testing.T) {
	seeds, steps := 200, 400
	if testing.Short() {
		seeds = 20
	}
	var decreases, ceased atomic.Int64
	t.Run("seeds", func(t *testing.T) {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				r := &walkRun{rng: rand.New(rand.NewSource(int64(seed))), e: MustNew(Config{T: 1.2, Nmax: 4}), scale: 1, keys: map[string]bool{}, seen: universe{}}
				var prev []string
				for i := 0; i < steps; i++ {
					desc, decrease := r.step()
					label := fmt.Sprintf("seed %d step %d: %s", seed, i, desc)
					u := r.seen.vertices()
					cur := expandedKeys(r.e, u)
					if want := oracleKeys(r.e, u); !slices.Equal(cur, want) {
						t.Fatalf("%s: expanded output-dense set\n got %v\nwant %v", label, cur, want)
					}
					if msg := r.e.ValidateIndex(); msg != "" {
						t.Fatalf("%s: %s", label, msg)
					}
					if decrease {
						decreases.Add(1)
						checkDecrease(t, r, prev, cur, label)
					}
					prev = cur
				}
				ceased.Add(int64(r.ceased))
			})
		}
	})
	t.Logf("%d decreases emitted %d CeasedOutputDense events", decreases.Load(), ceased.Load())
}

// checkDecrease checks what TestThresholdWalkMatchesBrute asks of a decrease
// that took the expanded output-dense set from before to after.
func checkDecrease(t *testing.T, r *walkRun, before, after []string, label string) {
	t.Helper()
	if msg := r.e.ValidateCertificates(); msg != "" {
		t.Fatalf("%s: %s", label, msg)
	}
	if got, want := r.e.OutputDenseKeys(), slices.Sorted(maps.Keys(r.keys)); !slices.Equal(got, want) {
		t.Fatalf("%s: output-dense keys %v, the events applied %v", label, got, want)
	}
	for _, k := range before {
		if _, ok := slices.BinarySearch(after, k); !ok {
			t.Fatalf("%s: the decrease lost %s", label, k)
		}
	}
	cfg := r.e.Config()
	fresh := MustNew(Config{T: cfg.T, Nmax: cfg.Nmax, DeltaIt: cfg.DeltaIt})
	var all []Update
	r.e.Graph().Edges(func(u, v Vertex, w float64) { all = append(all, Update{A: u, B: v, Delta: w}) })
	fresh.ProcessBatch(all)
	if got, want := r.e.ExportState().Dense, fresh.ExportState().Dense; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the rebuilt index\n%v\ndiffers from a fresh engine's\n%v", label, got, want)
	}
}

// FuzzEngineWalk drives one engine on at most ten vertices through every
// stateful entry point, as the input bytes dictate: Process, ProcessBatch,
// threshold ticks that fade or raise the scale, a tick that folds it, an
// empty tick that moves T by a factor in [0.8, 1.25] (up to scale 1, the
// most a snapshot restores), and export → import into a fresh engine built
// from the run's configuration. After every step the expanded output-dense
// set must equal brute.EnumerateAll and the index and its certificates must
// be valid.
func FuzzEngineWalk(f *testing.F) {
	f.Add([]byte{0, 1, 2, 200, 0, 3, 4, 220, 1, 5, 2, 9, 150, 6, 7, 240, 4, 30, 3, 4, 200, 5})
	f.Add([]byte{1, 9, 0, 1, 250, 1, 2, 250, 0, 2, 250, 3, 4, 250, 4, 5, 250, 4, 0, 2, 90, 3, 5, 4, 255})
	f.Add([]byte{0, 0, 1, 255, 0, 2, 3, 255, 2, 10, 2, 250, 3, 0, 4, 5, 180, 5, 4, 10, 4, 240})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		cfg := Config{T: 1.2, Nmax: 4}
		e := MustNew(cfg)
		scale := 1.0
		seen := universe{}
		update := func() Update {
			a, b := Vertex(next()%10), Vertex(next()%10)
			return Update{A: a, B: b, Delta: (float64(next())/255*2.5 - 0.5) * e.Config().T}
		}
		for step := 0; len(in) > 0 && step < 64; step++ {
			var desc string
			switch op := next() % 6; op {
			case 0:
				u := update()
				seen.add(u)
				e.Process(u)
				desc = fmt.Sprintf("Process %v", u)
			case 1:
				batch := make([]Update, 1+next()%6)
				for i := range batch {
					batch[i] = update()
				}
				seen.add(batch...)
				e.ProcessBatch(batch)
				desc = fmt.Sprintf("ProcessBatch %v", batch)
			case 2, 3:
				var retire []Update
				for i := next() % 3; i > 0; i-- {
					u := update()
					u.Delta = -e.Graph().Weight(u.A, u.B)
					retire = append(retire, u)
				}
				if scale = min(1, scale*(0.6+float64(next())/255*0.8)); op == 3 {
					scale *= 0x1p-500
				}
				e.ProcessThresholdBatch(scale, retire)
				desc = fmt.Sprintf("ProcessThresholdBatch %v %v", scale, retire)
				scale, _ = density.Fold(scale)
			case 4:
				f := 0.8 + float64(next())/255*0.45
				scale = min(1, scale/f)
				e.ProcessThresholdBatch(scale, nil)
				desc = fmt.Sprintf("ProcessThresholdBatch %v (T ×%v)", scale, f)
				scale, _ = density.Fold(scale)
			case 5:
				fresh := MustNew(cfg)
				if err := fresh.ImportState(e.Graph().ExportState(), e.ExportState()); err != nil {
					t.Fatal(err)
				}
				e, desc = fresh, "export → import"
			}
			checkAgainstBrute(t, e, seen.vertices(), fmt.Sprintf("step %d: %s", step, desc))
		}
	})
}

// TestThresholdUnitReachesStarEdgeScanTie replays the FuzzEngineWalk input
// that found starEdgeScan's tie: three units at T=1.2, then a threshold unit
// that lowers T by f = 0.8 + 30/255·0.45. The lowered T leaves {3,4,5,9} in
// a tie with its dense bound, which starEdgeScan only enumerates while its
// pruning bound keeps exploreNeed's slack. The corpus entry
// testdata/fuzz/FuzzEngineWalk/tie_star_edge_scan reaches the same state
// relabelled by 2: a first tick folds the scale to ½, and op 4 then moves it
// to ½/f.
func TestThresholdUnitReachesStarEdgeScanTie(t *testing.T) {
	e := MustNew(Config{T: 1.2, Nmax: 4})
	// The walk's arithmetic on its input bytes, run in float64 as it does it
	// (a constant expression would round differently and miss the tie).
	frac := func(b byte) float64 { return float64(b) / 255 }
	delta := func(b byte) float64 { return (frac(b)*2.5 - 0.5) * 1.2 }
	seen := universe{}
	u0, u1 := Update{A: 5, B: 9, Delta: delta(200)}, Update{A: 3, B: 4, Delta: delta(220)}
	batch := []Update{{A: 9, B: 5, Delta: delta(255)}, {A: 8, B: 8, Delta: delta(48)}}
	f := 0.8 + frac(30)*0.45
	steps := []struct {
		desc string
		run  func()
	}{
		{fmt.Sprintf("Process %v", u0), func() { seen.add(u0); e.Process(u0) }},
		{fmt.Sprintf("Process %v", u1), func() { seen.add(u1); e.Process(u1) }},
		{fmt.Sprintf("ProcessBatch %v", batch), func() { seen.add(batch...); e.ProcessBatch(batch) }},
		{fmt.Sprintf("ProcessThresholdBatch %v", 1/f), func() { e.ProcessThresholdBatch(1/f, nil) }},
	}
	for i, s := range steps {
		s.run()
		checkAgainstBrute(t, e, seen.vertices(), fmt.Sprintf("step %d: %s", i, s.desc))
	}
	if !slices.Contains(e.OutputDenseKeys(), "3,4,5,9") {
		t.Fatalf("fixture: {3,4,5,9} is not output-dense after the threshold unit: %v", e.OutputDenseKeys())
	}
}

// TestProcessThresholdBatchRejectsBadScale: a threshold unit's scale must be
// > 0. runUnit reads scale 0 as a plain batch, so ProcessThresholdBatch
// checks it rather than quietly running a batch that ThresholdTicks never
// counts.
func TestProcessThresholdBatchRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -0.5, math.NaN()} {
		e := MustNew(Config{T: 1.2, Nmax: 4})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ProcessThresholdBatch(%v, nil) did not panic", scale)
				}
			}()
			e.ProcessThresholdBatch(scale, nil)
		}()
		if st := e.Stats(); st.ThresholdTicks != 0 || st.Batches != 0 {
			t.Errorf("scale %v: the refused unit ran: %+v", scale, st)
		}
	}
}
