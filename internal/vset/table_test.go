package vset

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkTable requires t to hold exactly ref: Len, Get of every probe vertex,
// and All in ascending order.
func checkTable(tb testing.TB, t *Table[int], ref map[Vertex]int, probes []Vertex, label string) {
	tb.Helper()
	if t.Len() != len(ref) {
		tb.Fatalf("%s: Len = %d, want %d", label, t.Len(), len(ref))
	}
	for _, v := range probes {
		if got, want := t.Get(v), ref[v]; got != want {
			tb.Fatalf("%s: Get(%d) = %d, want %d", label, v, got, want)
		}
	}
	want := slices.Sorted(maps.Keys(ref))
	var got []Vertex
	for v, x := range t.All() {
		if x != ref[v] {
			tb.Fatalf("%s: All yields %d → %d, want %d", label, v, x, ref[v])
		}
		got = append(got, v)
	}
	if !slices.Equal(got, want) {
		tb.Fatalf("%s: All visits %v, want %v", label, got, want)
	}
}

// collidingKeys returns n vertices whose probes start at slot of a table of
// size slots, searching upward from from.
func collidingKeys(size, slot, n int, from Vertex) []Vertex {
	var probe Table[int]
	probe.resize(size)
	var out []Vertex
	for v := from; len(out) < n; v++ {
		if probe.home(v) == slot {
			out = append(out, v)
		}
	}
	return out
}

// extremes are vertex IDs at the edges of the int32 range and around zero.
var extremes = []Vertex{math.MinInt32, math.MinInt32 + 1, -5, -1, 0, 1, 2, math.MaxInt32 - 1, math.MaxInt32}

// TestTableMatchesMap drives a table and a map through the same random Sets —
// inserts, overwrites and deletes, enough to grow the table several times and
// to shrink the population back — over dense, negative, strided and extreme
// vertex IDs, and requires them to agree after every step.
func TestTableMatchesMap(t *testing.T) {
	pool := slices.Clone(extremes)
	for v := Vertex(-40); v < 300; v++ {
		pool = append(pool, v)
	}
	for k := Vertex(1); k < 64; k++ {
		pool = append(pool, k<<24, -k<<24, k<<30|k)
	}
	slices.Sort(pool)
	pool = slices.Compact(pool)
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var tab Table[int]
		ref := map[Vertex]int{}
		for step := 0; step < 6000; step++ {
			v := pool[rng.Intn(len(pool))]
			x := 1 + rng.Intn(1000)
			// Insert-heavy first half, delete-heavy second half.
			if rng.Intn(10) < 3+4*(step/3000) {
				x = 0
			}
			tab.Set(v, x)
			if x == 0 {
				delete(ref, v)
			} else {
				ref[v] = x
			}
			if step%97 == 0 || step == 5999 {
				checkTable(t, &tab, ref, pool, "step")
			}
		}
	}
}

// TestTableCollidingChain forces every key into one probe chain that wraps
// past the end of the slot array, with keys whose homes are the chain's
// neighbouring slots interleaved, then deletes from the middle of the chain:
// backward shift must keep every survivor reachable and move nothing in front
// of its home.
func TestTableCollidingChain(t *testing.T) {
	const size = 16 // 12 keys stay below the 3/4 load that would grow it
	chain := collidingKeys(size, size-2, 8, -1000)
	next := collidingKeys(size, size-1, 2, -1000)
	wrapped := collidingKeys(size, 0, 2, -1000)
	all := slices.Concat(chain[:4], next, chain[4:], wrapped)
	for _, order := range [][]int{{3, 0, 9, 5, 11, 1}, {11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, {0, 2, 4, 6, 8, 10}} {
		var tab Table[int]
		ref := map[Vertex]int{}
		for i, v := range all {
			tab.Set(v, i+1)
			ref[v] = i + 1
		}
		if len(tab.keys) != size {
			t.Fatalf("table grew to %d slots", len(tab.keys))
		}
		checkTable(t, &tab, ref, all, "full chain")
		for _, i := range order {
			tab.Set(all[i], 0)
			delete(ref, all[i])
			checkTable(t, &tab, ref, all, "after deleting from the chain")
			for slot, x := range tab.vals {
				if x != 0 {
					if d := (slot - tab.home(tab.keys[slot])) & (size - 1); d >= len(all) {
						t.Fatalf("key %d sits %d slots from its home", tab.keys[slot], d)
					}
				}
			}
		}
		// Re-insert what was deleted: the chain rebuilds without duplicates.
		for i, v := range all {
			tab.Set(v, 100+i)
			ref[v] = 100 + i
		}
		checkTable(t, &tab, ref, all, "refilled chain")
	}
}

// TestTableAllAscending checks that All visits vertices in ascending order,
// negative and extreme IDs included, whatever the insertion order.
func TestTableAllAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := slices.Clone(extremes)
	for i := 0; i < 200; i++ {
		vs = append(vs, Vertex(rng.Int31())-1<<30)
	}
	slices.Sort(vs)
	vs = slices.Compact(vs)
	var tab Table[*int]
	for _, i := range rng.Perm(len(vs)) {
		tab.Set(vs[i], new(int))
	}
	var got []Vertex
	for v := range tab.All() {
		got = append(got, v)
	}
	if !slices.Equal(got, vs) {
		t.Fatalf("All visits %v, want %v", got, vs)
	}
}

// TestTableAllocFree pins the hot path: Get, and Set of a vertex already
// present, allocate nothing.
func TestTableAllocFree(t *testing.T) {
	var tab Table[int]
	for v := Vertex(-100); v < 1000; v++ {
		tab.Set(v, int(v)+1000)
	}
	i, sink := 0, 0
	if n := testing.AllocsPerRun(100, func() {
		i = (i + 7) % 1100
		v := Vertex(i) - 100
		sink += tab.Get(v)
		tab.Set(v, sink%50+1)
	}); n != 0 {
		t.Fatalf("Get and Set of a present vertex: %v allocs per run, want 0", n)
	}
}

// FuzzVertexTable replays byte-driven Sets and Gets on a table and a map.
// Each operation is three bytes: a vertex selector, a value (0 deletes) and
// one byte that widens the selector into extreme, colliding or large IDs.
func FuzzVertexTable(f *testing.F) {
	f.Add([]byte{1, 5, 0, 2, 6, 1, 1, 0, 0})
	f.Add([]byte{0, 1, 2, 1, 1, 2, 2, 1, 2, 0, 0, 2, 3, 3, 3})
	chain := collidingKeys(16, 3, 16, 0)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[int]
		ref := map[Vertex]int{}
		var probes []Vertex
		for len(ops) >= 3 {
			sel, x, mode := ops[0], int(ops[1]), ops[2]
			ops = ops[3:]
			var v Vertex
			switch mode % 4 {
			case 0:
				v = Vertex(sel)
			case 1:
				v = extremes[int(sel)%len(extremes)]
			case 2:
				v = chain[int(sel)%len(chain)]
			default:
				v = Vertex(sel)<<24 | Vertex(mode)
			}
			probes = append(probes, v)
			tab.Set(v, x)
			if x == 0 {
				delete(ref, v)
			} else {
				ref[v] = x
			}
			if got := tab.Get(v); got != x {
				t.Fatalf("Get(%d) = %d right after Set(%d, %d)", v, got, v, x)
			}
		}
		checkTable(t, &tab, ref, probes, "end")
	})
}
