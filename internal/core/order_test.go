package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// eventLog runs updates through a fresh engine one Process call at a time and
// returns, per update, its events rendered exactly (kind, set, score bits),
// every vertex shifted by -shift.
func eventLog(cfg Config, updates []Update, shift Vertex) (*Engine, [][]string) {
	e := MustNew(cfg)
	out := make([][]string, len(updates))
	for i, u := range updates {
		for _, ev := range e.Process(Update{A: u.A + shift, B: u.B + shift, Delta: u.Delta}) {
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
	for _, maxExplore := range []bool{false, true} {
		cfg := Config{T: 1, Nmax: 4, EnableMaxExplore: maxExplore}
		for seed := int64(1); seed <= 40; seed++ {
			updates := starHeavyStream(seed, 400)
			_, a := eventLog(cfg, updates, 0)
			_, b := eventLog(cfg, updates, 0)
			if i := firstDifference(a, b); i >= 0 {
				t.Fatalf("MaxExplore %v seed %d update %d %v: events\n %v\nand\n %v", maxExplore, seed, i, updates[i], a[i], b[i])
			}
		}
	}
}

// TestShiftedVertexIDs runs a short planted stream twice, the second time with
// every vertex ID shifted by 2³⁰, far from the dense range the other tests
// use. Only relative vertex order and weights drive the algorithm, so both
// runs must emit the same events and end with the same output-dense sets and
// work counters, modulo the shift.
func TestShiftedVertexIDs(t *testing.T) {
	const shift = Vertex(1) << 30
	for seed := int64(1); seed <= 4; seed++ {
		cfg := Config{T: 1, Nmax: 4, EnableMaxExplore: true}
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
}
