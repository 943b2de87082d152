package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"dyndens/internal/density"
)

// walkRun drives one engine through a random walk over Process, ProcessBatch,
// ProcessThresholdBatch and SetThreshold ×1.1 and ×0.9 on ten vertices, with
// the output-dense key set the engine's events describe beside it.
type walkRun struct {
	rng    *rand.Rand
	e      *Engine
	scale  float64
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
func (r *walkRun) step(t *testing.T) (string, bool) {
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
		var err error
		if evs = collect(r.e, func() { err = r.e.SetThreshold(r.e.Config().T * f) }); err != nil {
			t.Fatal(err)
		}
		desc = fmt.Sprintf("SetThreshold ×%v", f)
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
					desc, decrease := r.step(t)
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
// threshold ticks that fade or raise the scale, a tick that folds it,
// SetThreshold up and down, and export → import into a fresh engine. After
// every step the expanded output-dense set must equal brute.EnumerateAll and
// the index and its certificates must be valid.
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
		e := MustNew(Config{T: 1.2, Nmax: 4})
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
				if err := e.SetThreshold(e.Config().T * f); err != nil && err != ErrSameThreshold {
					t.Fatal(err)
				}
				desc = fmt.Sprintf("SetThreshold ×%v", f)
			case 5:
				cfg := e.Config()
				fresh := MustNew(Config{T: cfg.T * e.DecayScale(), Nmax: cfg.Nmax})
				if err := fresh.ImportState(e.Graph().ExportState(), e.ExportState()); err != nil {
					t.Fatal(err)
				}
				e, desc = fresh, "export → import"
			}
			checkAgainstBrute(t, e, seen.vertices(), fmt.Sprintf("step %d: %s", step, desc))
		}
	})
}
