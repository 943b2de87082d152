package vset

import (
	"cmp"
	"iter"
	"slices"
)

// Table maps vertices to values of type T; the zero value of T means absent.
// It is the per-vertex directory of the graph and of the index: one probe
// finds a vertex's entry whatever its ID, with no Go map behind it. The zero
// Table is empty and ready to use.
//
// It is an open-addressing hash table with linear probing: keys and values
// sit in two parallel power-of-two arrays, a vertex's home slot is the top
// bits of a multiplicative (Fibonacci) hash, which spreads both dense and
// strided IDs, and a slot is free exactly when its value is zero. Deletion
// shifts the rest of the probe chain back instead of leaving tombstones, so
// a probe never walks past a free slot and lookups stay short under churn.
// A free slot may keep a stale key; that is harmless, because a probe for
// that key would stop there anyway.
type Table[T comparable] struct {
	keys  []Vertex
	vals  []T
	n     int
	shift uint // 64 − log₂ len(keys)
}

// tableMinSize is the slot count of a table's first allocation.
const tableMinSize = 8

// home returns the slot a probe for v starts at.
func (t *Table[T]) home(v Vertex) int {
	return int((uint64(uint32(v)) * 0x9E3779B97F4A7C15) >> t.shift)
}

// Len returns the number of vertices with a non-zero value.
func (t *Table[T]) Len() int { return t.n }

// Get returns v's value, the zero value if v is absent.
func (t *Table[T]) Get(v Vertex) T {
	var zero T
	if t.n == 0 {
		return zero
	}
	mask := len(t.keys) - 1
	for i := t.home(v); ; i = (i + 1) & mask {
		// A free slot holding a stale v also answers correctly: zero.
		if t.keys[i] == v || t.vals[i] == zero {
			return t.vals[i]
		}
	}
}

// Set stores x as v's value; setting the zero value deletes v.
func (t *Table[T]) Set(v Vertex, x T) {
	var zero T
	if len(t.keys) == 0 {
		if x == zero {
			return
		}
		t.resize(tableMinSize)
	}
	mask := len(t.keys) - 1
	i := t.home(v)
	for ; t.vals[i] != zero; i = (i + 1) & mask {
		if t.keys[i] == v {
			if x == zero {
				t.remove(i)
			} else {
				t.vals[i] = x
			}
			return
		}
	}
	if x == zero {
		return
	}
	// Grow past a load of 3/4, where linear probing's chains start to lengthen
	// quickly.
	if 4*(t.n+1) > 3*len(t.keys) {
		t.resize(2 * len(t.keys))
		t.insertNew(v, x)
	} else {
		t.keys[i], t.vals[i] = v, x
	}
	t.n++
}

// remove frees slot i by backward shift: each later entry of the chain whose
// home does not lie strictly between i and itself moves into the gap, which
// then moves on to where that entry was.
func (t *Table[T]) remove(i int) {
	var zero T
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.vals[j] != zero; j = (j + 1) & mask {
		if (j-t.home(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.vals[i] = zero
	t.n--
}

// insertNew places v, known to be absent, in the first free slot of its chain.
func (t *Table[T]) insertNew(v Vertex, x T) {
	var zero T
	mask := len(t.keys) - 1
	i := t.home(v)
	for t.vals[i] != zero {
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i] = v, x
}

// resize rehashes every entry into size slots, a power of two.
func (t *Table[T]) resize(size int) {
	var zero T
	keys, vals := t.keys, t.vals
	t.keys, t.vals = make([]Vertex, size), make([]T, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for i, x := range vals {
		if x != zero {
			t.insertNew(keys[i], x)
		}
	}
}

// All visits every vertex with a non-zero value, with that value, in
// ascending vertex order. The table must not be modified during the visit.
func (t *Table[T]) All() iter.Seq2[Vertex, T] {
	return func(yield func(Vertex, T) bool) {
		var zero T
		slots := make([]int, 0, t.n)
		for i, x := range t.vals {
			if x != zero {
				slots = append(slots, i)
			}
		}
		slices.SortFunc(slots, func(i, j int) int { return cmp.Compare(t.keys[i], t.keys[j]) })
		for _, i := range slots {
			if !yield(t.keys[i], t.vals[i]) {
				return
			}
		}
	}
}
