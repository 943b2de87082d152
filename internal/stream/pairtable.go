package stream

import "math"

// pairTable is the aggregator's weight table: open addressing from packed
// pair keys to float64 weights in two flat parallel slices, probed with a
// strong 64-bit finalizer plus linear stepping, and allocation-free in steady
// state for probe, insert and delete alike (only growth and tombstone
// compaction allocate, amortized O(1) per insert). pairKey packs a < b, so
// key 0 (the pair {0,0}) can mark an empty slot and ^0 a tombstone. Deletion
// leaves a tombstone, and a compaction pass rehashes in place once they
// exceed a quarter of the capacity. Iteration order depends on the layout and
// is unexported: every path that feeds the update stream orders keys itself.
type pairTable struct {
	keys []uint64
	vals []float64
	live int // occupied, non-tombstone slots
	dead int // tombstone slots
}

const (
	ptEmpty     = uint64(0)
	ptTombstone = ^uint64(0)
	// ptMinCap is the initial capacity (power of two). 256 slots ≈ 3 KiB —
	// small enough to not matter, large enough that short streams never grow.
	ptMinCap = 256
)

// newPairTable returns an empty table ready for use.
func newPairTable() *pairTable {
	return &pairTable{keys: make([]uint64, ptMinCap), vals: make([]float64, ptMinCap)}
}

// ptHash is the splitmix64/murmur3 finalizer: full-avalanche mixing so the
// packed (a<<32 | b) structure of pair keys — low entropy in the high word
// for small vertex universes — still spreads across the whole table.
func ptHash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// len returns the number of live entries.
func (t *pairTable) len() int { return t.live }

// get returns the weight stored for k and whether it is present.
func (t *pairTable) get(k pairKey) (float64, bool) {
	mask := uint64(len(t.keys) - 1)
	for i := ptHash(uint64(k)) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case uint64(k):
			return t.vals[i], true
		case ptEmpty:
			return 0, false
		}
	}
}

// add adds delta to k's weight, inserting it if absent, and returns the new
// weight and whether the pair already existed. This is the single-probe form
// of the ingest hot path's read-modify-write.
func (t *pairTable) add(k pairKey, delta float64) (float64, bool) {
	mask := uint64(len(t.keys) - 1)
	grave := uint64(len(t.keys)) // first tombstone seen; sentinel = none
	for i := ptHash(uint64(k)) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case uint64(k):
			t.vals[i] += delta
			return t.vals[i], true
		case ptTombstone:
			if grave == uint64(len(t.keys)) {
				grave = i
			}
		case ptEmpty:
			if grave != uint64(len(t.keys)) {
				i = grave
				t.dead--
			}
			t.keys[i] = uint64(k)
			t.vals[i] = delta
			t.live++
			t.maybeGrow()
			return delta, false
		}
	}
}

// put stores v as k's weight, inserting it if absent.
func (t *pairTable) put(k pairKey, v float64) {
	mask := uint64(len(t.keys) - 1)
	grave := uint64(len(t.keys))
	for i := ptHash(uint64(k)) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case uint64(k):
			t.vals[i] = v
			return
		case ptTombstone:
			if grave == uint64(len(t.keys)) {
				grave = i
			}
		case ptEmpty:
			if grave != uint64(len(t.keys)) {
				i = grave
				t.dead--
			}
			t.keys[i] = uint64(k)
			t.vals[i] = v
			t.live++
			t.maybeGrow()
			return
		}
	}
}

// del removes k, reporting whether it was present. The slot becomes a
// tombstone; compaction reclaims tombstones once they exceed a quarter of
// the capacity.
func (t *pairTable) del(k pairKey) bool {
	mask := uint64(len(t.keys) - 1)
	for i := ptHash(uint64(k)) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case uint64(k):
			t.keys[i] = ptTombstone
			t.vals[i] = 0
			t.live--
			t.dead++
			if t.dead > len(t.keys)/4 {
				t.rehash(len(t.keys))
			}
			return true
		case ptEmpty:
			return false
		}
	}
}

// appendKeys appends every live key to buf and returns it. Order is
// layout-dependent; callers that emit must sort.
func (t *pairTable) appendKeys(buf []pairKey) []pairKey {
	for _, k := range t.keys {
		if k != ptEmpty && k != ptTombstone {
			buf = append(buf, pairKey(k))
		}
	}
	return buf
}

// ldexp multiplies every weight by 2^k, deleting those that become 0, and
// returns how many entries it visited.
func (t *pairTable) ldexp(k int) int {
	visited := t.live
	for i, key := range t.keys {
		if key != ptEmpty && key != ptTombstone {
			if t.vals[i] = math.Ldexp(t.vals[i], k); t.vals[i] == 0 {
				t.keys[i], t.live, t.dead = ptTombstone, t.live-1, t.dead+1
			}
		}
	}
	if t.dead > len(t.keys)/4 {
		t.rehash(len(t.keys))
	}
	return visited
}

// maybeGrow doubles the table once live+dead occupancy passes 3/4, keeping
// probe sequences short. Growth also discards tombstones.
func (t *pairTable) maybeGrow() {
	if (t.live+t.dead)*4 >= len(t.keys)*3 {
		t.rehash(len(t.keys) * 2)
	}
}

// rehash re-inserts the live entries into a table of newCap slots (a power of
// two). With newCap == len(t.keys) this is the tombstone-compaction pass.
func (t *pairTable) rehash(newCap int) {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, newCap)
	t.vals = make([]float64, newCap)
	t.dead = 0
	mask := uint64(newCap - 1)
	for i, k := range oldKeys {
		if k == ptEmpty || k == ptTombstone {
			continue
		}
		j := ptHash(k) & mask
		for t.keys[j] != ptEmpty {
			j = (j + 1) & mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
	}
}
