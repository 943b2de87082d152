package stream

import (
	"fmt"
	"math/rand"
	"testing"
)

// tableDel removes k from tab, reporting whether it was present: the
// aggregator's find-then-deleteAt, for tests that delete by key.
func tableDel(tab *pairTable, k pairKey) bool {
	i, ok := tab.find(k)
	if ok {
		tab.deleteAt(i)
	}
	return ok
}

// pairTableInvariant checks the layout backward-shift deletion maintains: no
// live key has an empty slot between its home and its slot (a probe for it
// would stop short), and occupancy equals len().
func pairTableInvariant(tab *pairTable) error {
	mask := uint64(len(tab.hashes) - 1)
	start := uint64(0) // an empty slot: the walk below sees every run whole
	for tab.hashes[start] != ptEmpty {
		start++
	}
	occupied, run := 0, uint64(0) // run: occupied slots ending at i
	for n := uint64(1); n <= mask+1; n++ {
		i := (start + n) & mask
		h := tab.hashes[i]
		if h == ptEmpty {
			run = 0
			continue
		}
		occupied++
		if run++; (i-h)&mask >= run {
			return fmt.Errorf("key %x in slot %d: its chain from slot %d crosses an empty slot", ptUnhash(h), i, h&mask)
		}
	}
	if occupied != tab.len() {
		return fmt.Errorf("%d occupied slots, len() = %d", occupied, tab.len())
	}
	return nil
}

// TestPairTableMatchesMap drives randomized add/put/del/get traffic through
// the open-addressing table and a reference map in lockstep: contents must
// agree after every operation, across growth and shrinking, and the layout
// must keep the backward-shift invariant throughout. Phases of 3000 mostly
// inserting operations alternate with phases of mostly deletes, which move
// the live count between about 130 and 850, so the table grows and shrinks
// again and again.
func TestPairTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := newPairTable()
		ref := map[pairKey]float64{}
		peak, shrunk := 0, false
		keyAt := func() pairKey {
			a := int32(rng.Intn(30))
			b := a + 1 + int32(rng.Intn(40))
			return makePairKey(a, b)
		}
		for op := 0; op < 60000; op++ {
			k := keyAt()
			r := rng.Float64()
			if op/3000%2 == 1 && rng.Float64() < 0.9 {
				r = 0.8 // a retiring phase: mostly deletes, so the table shrinks
			}
			switch {
			case r < 0.55:
				delta := rng.NormFloat64()
				got, existed := tab.add(k, delta)
				_, wantExisted := ref[k]
				ref[k] += delta
				if existed != wantExisted || got != ref[k] {
					t.Fatalf("seed %d op %d: add(%x) = (%v, %v), want (%v, %v)", seed, op, k, got, existed, ref[k], wantExisted)
				}
			case r < 0.70:
				v := rng.NormFloat64()
				tab.put(k, v)
				ref[k] = v
			case r < 0.90:
				got := tableDel(tab, k)
				_, want := ref[k]
				delete(ref, k)
				if got != want {
					t.Fatalf("seed %d op %d: del(%x) = %v, want %v", seed, op, k, got, want)
				}
			default:
				got, ok := tab.get(k)
				want, wantOk := ref[k]
				if ok != wantOk || got != want {
					t.Fatalf("seed %d op %d: get(%x) = (%v, %v), want (%v, %v)", seed, op, k, got, ok, want, wantOk)
				}
			}
			if tab.len() != len(ref) {
				t.Fatalf("seed %d op %d: len = %d, want %d", seed, op, tab.len(), len(ref))
			}
			if err := pairTableInvariant(tab); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			peak = max(peak, len(tab.hashes))
			if op%3000 == 2999 && op/3000%2 == 1 {
				shrunk = shrunk || len(tab.hashes) <= peak/2
			}
		}
		if !shrunk {
			t.Fatalf("seed %d: the table never shrank to half its peak %d", seed, peak)
		}
		// Full-content check via appendKeys: every live key, each exactly once,
		// values matching.
		keys := tab.appendKeys(nil)
		if len(keys) != len(ref) {
			t.Fatalf("seed %d: appendKeys yielded %d keys, want %d", seed, len(keys), len(ref))
		}
		seen := map[pairKey]bool{}
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("seed %d: appendKeys repeated key %x", seed, k)
			}
			seen[k] = true
			got, ok := tab.get(k)
			if want, wantOk := ref[k], true; !ok || got != want || !wantOk {
				t.Fatalf("seed %d: key %x = (%v, %v), want (%v, true)", seed, k, got, ok, want)
			}
		}
	}
}

// TestPairTableCapacityFollowsLive pins that the capacity follows the live
// count both ways. Under heavy delete/re-insert churn at a fixed live size,
// no entry is lost and the capacity stays within twice what the growth bound
// needs (2 × live ÷ ⅞); after a burst to ten times the live size retires
// again, the capacity comes back within 4× of the live count.
func TestPairTableCapacityFollowsLive(t *testing.T) {
	tab := newPairTable()
	const live = 300
	for i := int32(0); i < live; i++ {
		tab.put(makePairKey(i, i+1000), float64(i))
	}
	within := func(when string, bound float64) {
		t.Helper()
		if c := len(tab.hashes); float64(c) > bound {
			t.Fatalf("%s: capacity %d for %d live entries, bound %.0f", when, c, tab.len(), bound)
		}
		if err := pairTableInvariant(tab); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for round := 0; round < 200; round++ {
		for i := int32(0); i < live; i++ {
			if !tableDel(tab, makePairKey(i, i+1000)) {
				t.Fatalf("round %d: key %d missing before delete", round, i)
			}
			tab.put(makePairKey(i, i+1000), float64(round))
		}
		within(fmt.Sprintf("churn round %d", round), 2*live/0.875)
	}
	for i := int32(0); i < 10*live; i++ {
		tab.put(makePairKey(5000+i, 100000+i), 1)
	}
	if tab.len() != 11*live || len(tab.hashes) < 11*live {
		t.Fatalf("burst: %d live in %d slots, want %d", tab.len(), len(tab.hashes), 11*live)
	}
	for i := int32(0); i < 10*live; i++ {
		if !tableDel(tab, makePairKey(5000+i, 100000+i)) {
			t.Fatalf("burst key %d missing before delete", i)
		}
	}
	if tab.len() != live {
		t.Fatalf("len = %d after the burst retired, want %d", tab.len(), live)
	}
	within("after the burst retired", 4*live)
	for i := int32(0); i < live; i++ {
		if w, ok := tab.get(makePairKey(i, i+1000)); !ok || w != 199 {
			t.Fatalf("key %d = (%v, %v) after the burst, want (199, true)", i, w, ok)
		}
	}
}

// TestPairTableSteadyStateZeroAlloc is the hot-path pin: once warm, the
// probe/insert/delete cycle allocates nothing (the whole point of replacing
// the runtime map).
func TestPairTableSteadyStateZeroAlloc(t *testing.T) {
	tab := newPairTable()
	for i := int32(0); i < 100; i++ {
		tab.put(makePairKey(i, i+500), 1)
	}
	i := int32(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		k := makePairKey(i%100, i%100+500)
		tab.add(k, 0.5)
		tab.get(k)
		extra := makePairKey(200+i%50, 400+i%50)
		tab.add(extra, 1)
		tableDel(tab, extra)
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state table ops allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestPairTableResizeBoundaryZeroAlloc: a live count that oscillates across
// the growth bound resizes once and then allocates nothing, because the
// shrink bound lies far below the grown table's load.
func TestPairTableResizeBoundaryZeroAlloc(t *testing.T) {
	tab := newPairTable()
	grow := ptMinCap * 7 / 8 // the live count at which a ptMinCap table grows
	for i := int32(0); i < int32(grow); i++ {
		tab.put(makePairKey(i, i+1000), 1)
	}
	i := int32(0)
	cycle := func() {
		for j := int32(0); j < 4; j++ { // across the growth bound …
			tab.add(makePairKey(5000+i%64, 6000+j), 1)
		}
		for j := int32(0); j < 4; j++ { // … and back
			tableDel(tab, makePairKey(5000+i%64, 6000+j))
		}
		i++
	}
	cycle()
	if len(tab.hashes) != 2*ptMinCap {
		t.Fatalf("capacity %d after crossing the growth bound, want %d", len(tab.hashes), 2*ptMinCap)
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("oscillating across the growth bound allocated %.1f allocs/op, want 0", allocs)
	}
}
