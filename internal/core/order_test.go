package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dyndens/internal/density"
	"dyndens/internal/vset"
)

// eventLog runs updates through a fresh engine one Process call at a time and
// returns, per update, its events rendered exactly (kind, set, score bits),
// every vertex shifted by -shift.
func eventLog(cfg Config, updates []Update, shift Vertex) (*Engine, [][]string) {
	e := MustNew(cfg)
	var sink CollectorSink
	e.SetSink(&sink)
	out := make([][]string, len(updates))
	for i, u := range updates {
		e.Process(Update{A: u.A + shift, B: u.B + shift, Delta: u.Delta})
		for _, ev := range sink.Take() {
			out[i] = append(out[i], fmt.Sprintf("%v %v %x", ev.Kind, unshift(ev.Set.Key(), shift), ev.Score))
		}
	}
	return e, out
}

// unshift maps a set key of shifted vertices back to the original vertices.
func unshift(key string, shift Vertex) string {
	if key == "" {
		return key
	}
	parts := strings.Split(key, ",")
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 32)
		if err != nil {
			panic(err)
		}
		parts[i] = strconv.FormatInt(v-int64(shift), 10)
	}
	return strings.Join(parts, ",")
}

// permuteKey maps the vertices of a set key through perm and returns the key
// of the image.
func permuteKey(key string, perm []int) string {
	var vs []Vertex
	for _, p := range strings.Split(key, ",") {
		v, err := strconv.Atoi(p)
		if err != nil {
			panic(err)
		}
		vs = append(vs, Vertex(perm[v]))
	}
	return vset.New(vs...).Key()
}

// firstDifference returns the first update at which two event logs disagree,
// or -1.
func firstDifference(a, b [][]string) int {
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// TestEventOrderIndependentOfInstance is the regression test for event order
// that depended on the Go runtime's map iteration order: the graph's edge
// enumeration ranged over a map, lowering the heavy-edge floor filled the
// buckets in that order and the star-family edge scan admits in bucket order,
// so two engines fed the same stream emitted one update's events in different
// orders. Within an update the order is now a function of the input alone.
func TestEventOrderIndependentOfInstance(t *testing.T) {
	cfg := Config{T: 1, Nmax: 4}
	for seed := int64(1); seed <= 40; seed++ {
		updates := starHeavyStream(seed, 400)
		_, a := eventLog(cfg, updates, 0)
		_, b := eventLog(cfg, updates, 0)
		if i := firstDifference(a, b); i >= 0 {
			t.Fatalf("seed %d update %d %v: events\n %v\nand\n %v", seed, i, updates[i], a[i], b[i])
		}
	}
}

// TestShiftedVertexIDs runs a short planted stream twice, the second time with
// every vertex ID shifted by 2³⁰, far from the dense range the other tests
// use. Only relative vertex order and weights drive the algorithm, so both
// runs must emit the same events and end with the same output-dense sets and
// work counters, modulo the shift. A relabelling that does not keep the
// order must still permute the output (checkPermutedPlanted).
func TestShiftedVertexIDs(t *testing.T) {
	const shift = Vertex(1) << 30
	for seed := int64(1); seed <= 4; seed++ {
		cfg := Config{T: 1, Nmax: 4}
		updates := starHeavyStream(seed, 300)
		plain, a := eventLog(cfg, updates, 0)
		shifted, b := eventLog(cfg, updates, shift)
		if i := firstDifference(a, b); i >= 0 {
			t.Fatalf("seed %d update %d %v: events\n %v\nshifted\n %v", seed, i, updates[i], a[i], b[i])
		}
		want := plain.OutputDenseKeys()
		var got []string
		for _, k := range shifted.OutputDenseKeys() {
			got = append(got, unshift(k, shift))
		}
		slices.Sort(got)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("seed %d: output-dense sets\n %v\nshifted\n %v", seed, want, got)
		}
		if plain.Stats() != shifted.Stats() {
			t.Fatalf("seed %d: work counters %+v, shifted %+v", seed, plain.Stats(), shifted.Stats())
		}
		checkValid(t, shifted, fmt.Sprintf("seed %d shifted", seed))
	}
	for seed := int64(1); seed <= 2; seed++ {
		checkPermutedPlanted(t, seed)
	}
}

// plantedDraw returns the update draw of the planted streams over the given
// number of vertices: one update in four is a light pair anywhere, the rest
// raise a pair inside one of ten five-vertex cliques. Every delta is
// non-negative, and a clique pair stays under 1.9·T in e's graph, so nothing
// is ever too-dense: a family's expansion over 2 000 vertices would be too
// large to list.
func plantedDraw(rng *rand.Rand, vertices int, e *Engine) func() Update {
	cliques := make([][]int, 10)
	for i := range cliques {
		cliques[i] = rng.Perm(vertices)[:5]
	}
	return func() Update {
		t := e.Config().T
		if rng.Intn(4) == 0 {
			u, v := rng.Intn(vertices), rng.Intn(vertices-1)
			if v >= u {
				v++
			}
			return Update{A: Vertex(u), B: Vertex(v), Delta: (0.01 + 0.1*rng.Float64()) * t}
		}
		c := cliques[rng.Intn(len(cliques))]
		i, j := rng.Intn(5), rng.Intn(4)
		if j >= i {
			j++
		}
		u := Update{A: Vertex(c[i]), B: Vertex(c[j])}
		u.Delta = min((0.4+0.8*rng.Float64())*t, 1.9*t-e.Graph().Weight(u.A, u.B))
		return u
	}
}

// TestRebatchedPlantedStream is the re-batching relation at scale: a planted
// stream over 2 000 vertices with non-negative deltas runs through single
// Process calls and through three random partitions into ProcessBatch calls.
// The graph ends the same whatever the partition, and the engine is exact,
// so all four runs must end with the same expanded output-dense set.
func TestRebatchedPlantedStream(t *testing.T) {
	const vertices = 2000
	rng := rand.New(rand.NewSource(1))
	single := MustNew(Config{T: 1, Nmax: 4})
	draw := plantedDraw(rng, vertices, single)
	updates := make([]Update, 3000)
	for i := range updates {
		updates[i] = draw()
		single.Process(updates[i])
	}
	// Deltas are non-negative, so the graph's own vertices are the universe.
	want := expandedKeys(single, nil)
	if len(want) == 0 || single.Stats().Insertions == 0 || single.ImplicitFamilyCount() != 0 {
		t.Fatalf("fixture: %d output-dense sets, %d insertions, %d families", len(want), single.Stats().Insertions, single.ImplicitFamilyCount())
	}
	for p := 0; p < 3; p++ {
		batched := MustNew(Config{T: 1, Nmax: 4})
		batches := 0
		for rest := updates; len(rest) > 0; batches++ {
			k := min(1+rng.Intn(200), len(rest))
			batched.ProcessBatch(rest[:k])
			rest = rest[k:]
		}
		if got := expandedKeys(batched, nil); !slices.Equal(got, want) {
			t.Fatalf("partition %d into %d batches ends at\n %v\nsingle updates at\n %v", p, batches, got, want)
		}
		checkValid(t, batched, fmt.Sprintf("partition %d", p))
	}
	t.Logf("%d output-dense sets, %d events", len(want), single.Stats().Events)
}

// checkPermutedPlanted is the permutation relation at scale: a planted stream
// over 2 000 vertices runs through two engines, the second with every vertex
// relabelled by a random permutation, and every 50 units the expanded
// output-dense sets must correspond under it. The stream mixes batches, single
// updates and threshold units that retire pairs under a scale that starts
// near the fold floor and fades by 2^-5 per epoch, so both engines fold
// several times. The relation holds because the engine is exact: its output
// is a function of the graph alone.
func checkPermutedPlanted(t *testing.T, seed int64) {
	const vertices = 2000
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(vertices)
	relabel := func(us []Update) []Update {
		out := make([]Update, len(us))
		for i, u := range us {
			out[i] = Update{A: Vertex(perm[u.A]), B: Vertex(perm[u.B]), Delta: u.Delta}
		}
		return out
	}
	a, b := MustNew(Config{T: 1, Nmax: 4}), MustNew(Config{T: 1, Nmax: 4})
	scale := 0x1p-490
	a.ProcessThresholdBatch(scale, nil)
	b.ProcessThresholdBatch(scale, nil)
	draw := plantedDraw(rng, vertices, a)
	seen := universe{} // a's; b's is its image under perm
	folds, compared := 0, 0
	for unit := 1; unit <= 1000; unit++ {
		switch k := rng.Intn(10); {
		case k < 6:
			batch := make([]Update, 1+rng.Intn(20))
			for i := range batch {
				batch[i] = draw()
			}
			seen.add(batch...)
			a.ProcessBatch(batch)
			b.ProcessBatch(relabel(batch))
		case k < 8:
			u := draw()
			seen.add(u)
			a.Process(u)
			b.Process(relabel([]Update{u})[0])
		default:
			var retire []Update
			for i := rng.Intn(4); i > 0; i-- {
				u := draw()
				u.Delta = -a.Graph().Weight(u.A, u.B)
				retire = append(retire, u)
			}
			scale *= 0x1p-5
			a.ProcessThresholdBatch(scale, retire)
			b.ProcessThresholdBatch(scale, relabel(retire))
			if m, k := density.Fold(scale); k != 0 {
				scale = m
				folds++
			}
		}
		if unit%50 != 0 {
			continue
		}
		ua := seen.vertices()
		ub := make([]Vertex, len(ua))
		for i, v := range ua {
			ub[i] = Vertex(perm[v])
		}
		slices.Sort(ub)
		var want []string
		for _, k := range expandedKeys(a, ua) {
			want = append(want, permuteKey(k, perm))
		}
		slices.Sort(want)
		if got := expandedKeys(b, ub); !slices.Equal(got, want) {
			t.Fatalf("seed %d unit %d: relabelled expanded set\n %v\nwant the permuted\n %v", seed, unit, got, want)
		}
		compared += len(want)
	}
	t.Logf("seed %d: %d folds, %d output-dense sets compared, %d events", seed, folds, compared, a.Stats().Events)
	if folds < 2 || compared == 0 {
		t.Fatalf("seed %d: %d folds, %d output-dense sets compared", seed, folds, compared)
	}
}
