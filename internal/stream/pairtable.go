package stream

import "math"

// pairTable is the aggregator's weight table: open addressing from packed
// pair keys to float64 weights in two flat parallel slices, probed with a
// strong 64-bit finalizer plus linear stepping, and allocation-free in steady
// state for probe, insert and delete alike (only a resize allocates,
// amortized O(1) per operation). A slot stores its key's hash rather than the
// key: the finalizer is a bijection, so the hash identifies the key (and
// ptUnhash recovers it), and a slot's home is its low bits, free to read
// wherever a deletion or a resize needs it. pairKey packs a < b, so key 0
// (the pair {0,0}), whose hash is 0, marks an empty slot.
//
// Deletion shifts the rest of the probe chain back, as vset.Table does,
// instead of leaving a tombstone, so occupancy is the live count and a
// retired pair gives its slot back at once. The capacity follows the live
// count both ways: the table doubles once live entries pass 7/8 of the slots
// and halves (down to ptMinCap) once they fall below 1/4, which keeps the
// capacity within 4× of the live count after a burst has retired, and the
// gap between the two bounds keeps a steady stream from resizing. Iteration
// order depends on the layout and is unexported: every path that feeds the
// update stream orders keys itself.
type pairTable struct {
	hashes []uint64 // ptHash of each slot's key; ptEmpty marks a free slot
	vals   []float64
	live   int // occupied slots
}

const (
	ptEmpty = uint64(0)
	// ptMinCap is the initial and smallest capacity (power of two). 256 slots
	// ≈ 4 KiB — small enough to not matter, large enough that short streams
	// never resize.
	ptMinCap = 256
)

// newPairTable returns an empty table ready for use.
func newPairTable() *pairTable {
	return &pairTable{hashes: make([]uint64, ptMinCap), vals: make([]float64, ptMinCap)}
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

// ptUnhash inverts ptHash: each xor-shift by 33 is its own inverse, and each
// multiplier has one modulo 2^64.
func ptUnhash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0x9cb4b2f8129337db
	h ^= h >> 33
	h *= 0x4f74430c22a54005
	h ^= h >> 33
	return h
}

// len returns the number of live entries.
func (t *pairTable) len() int { return t.live }

// find returns the slot holding k and true, or the empty slot ending k's
// probe chain and false.
func (t *pairTable) find(k pairKey) (int, bool) {
	h := ptHash(uint64(k))
	mask := uint64(len(t.hashes) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch t.hashes[i] {
		case h:
			return int(i), true
		case ptEmpty:
			return int(i), false
		}
	}
}

// get returns the weight stored for k and whether it is present.
func (t *pairTable) get(k pairKey) (float64, bool) {
	if i, ok := t.find(k); ok {
		return t.vals[i], true
	}
	return 0, false
}

// add adds delta to k's weight, inserting it if absent, and returns the new
// weight and whether the pair already existed. This is the single-probe form
// of the ingest hot path's read-modify-write.
func (t *pairTable) add(k pairKey, delta float64) (float64, bool) {
	i, ok := t.find(k)
	if ok {
		t.vals[i] += delta
		return t.vals[i], true
	}
	t.insertAt(i, k, delta)
	return delta, false
}

// put stores v as k's weight, inserting it if absent.
func (t *pairTable) put(k pairKey, v float64) {
	if i, ok := t.find(k); ok {
		t.vals[i] = v
	} else {
		t.insertAt(i, k, v)
	}
}

// insertAt stores (k, v) in the empty slot i that ends k's probe chain.
func (t *pairTable) insertAt(i int, k pairKey, v float64) {
	t.hashes[i], t.vals[i] = ptHash(uint64(k)), v
	t.live++
	if t.live*8 > len(t.hashes)*7 {
		t.rehash(len(t.hashes) * 2)
	}
}

// deleteAt removes the entry in slot i (as find reported it), then halves
// the table if the live count has fallen below a quarter of it.
func (t *pairTable) deleteAt(i int) {
	t.removeAt(i)
	t.maybeShrink()
}

// removeAt frees slot i by backward shift: each later entry of the chain
// whose home does not lie strictly between i and itself moves into the gap,
// which then moves on to where that entry was. So no probe ever walks past a
// freed slot, and no tombstone is left behind.
func (t *pairTable) removeAt(i int) {
	mask := len(t.hashes) - 1
	for j := (i + 1) & mask; t.hashes[j] != ptEmpty; j = (j + 1) & mask {
		if (j-int(t.hashes[j]))&mask >= (j-i)&mask {
			t.hashes[i], t.vals[i] = t.hashes[j], t.vals[j]
			i = j
		}
	}
	t.hashes[i], t.vals[i] = ptEmpty, 0
	t.live--
}

// maybeShrink halves the table, down to ptMinCap, while live entries fill
// less than a quarter of it.
func (t *pairTable) maybeShrink() {
	n := len(t.hashes)
	for n > ptMinCap && t.live*4 < n {
		n /= 2
	}
	if n != len(t.hashes) {
		t.rehash(n)
	}
}

// appendKeys appends every live key to buf and returns it. Order is
// layout-dependent; callers that emit must sort.
func (t *pairTable) appendKeys(buf []pairKey) []pairKey {
	for _, h := range t.hashes {
		if h != ptEmpty {
			buf = append(buf, pairKey(ptUnhash(h)))
		}
	}
	return buf
}

// ldexp multiplies every weight by 2^k, deleting those that become 0, and
// returns how many entries it visited. The deletions run as a second pass,
// after every weight is scaled, that re-examines a slot after freeing it: a
// backward shift moves entries only into the freed slot and the gaps after
// it, so no zero the pass has not yet reached lands behind it.
func (t *pairTable) ldexp(k int) int {
	visited, zeroed := t.live, false
	for i, h := range t.hashes {
		if h != ptEmpty {
			t.vals[i] = math.Ldexp(t.vals[i], k)
			zeroed = zeroed || t.vals[i] == 0
		}
	}
	if zeroed {
		for i := 0; i < len(t.hashes); {
			if t.hashes[i] != ptEmpty && t.vals[i] == 0 {
				t.removeAt(i)
			} else {
				i++
			}
		}
		t.maybeShrink()
	}
	return visited
}

// rehash re-inserts the live entries into a table of newCap slots (a power of
// two).
func (t *pairTable) rehash(newCap int) {
	oldHashes, oldVals := t.hashes, t.vals
	t.hashes = make([]uint64, newCap)
	t.vals = make([]float64, newCap)
	mask := uint64(newCap - 1)
	for i, h := range oldHashes {
		if h == ptEmpty {
			continue
		}
		j := h & mask
		for t.hashes[j] != ptEmpty {
			j = (j + 1) & mask
		}
		t.hashes[j] = h
		t.vals[j] = oldVals[i]
	}
}
