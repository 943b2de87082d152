// Package vset provides small, sorted, immutable vertex sets and the set
// algebra the DynDens index and exploration procedures need.
//
// Vertex identifiers are int32 (the paper denotes vertices by natural
// numbers). Sets are stored as strictly increasing slices, which makes the
// canonical prefix-tree path of a set simply the sequence of its elements,
// and gives O(n) membership checks and merges on the tiny sets (|C| ≤ Nmax)
// DynDens manipulates.
package vset

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Vertex identifies a node of the entity graph.
type Vertex = int32

// Set is a sorted, duplicate-free collection of vertices. The zero value is
// the empty set. Sets are treated as immutable: mutating operations return a
// new Set and never alias the receiver's backing array in a way that could be
// observed by the caller.
type Set []Vertex

// New builds a Set from the given vertices, sorting and de-duplicating them.
func New(vs ...Vertex) Set {
	if len(vs) == 0 {
		return nil
	}
	out := make(Set, len(vs))
	copy(out, vs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// De-duplicate in place.
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// FromSorted wraps a slice that is already strictly increasing. It panics if
// the invariant does not hold; use it only on slices you control.
func FromSorted(vs []Vertex) Set {
	for i := 1; i < len(vs); i++ {
		if vs[i-1] >= vs[i] {
			panic(fmt.Sprintf("vset.FromSorted: input not strictly increasing at %d: %v", i, vs))
		}
	}
	return Set(vs)
}

// Len reports the cardinality of the set.
func (s Set) Len() int { return len(s) }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s) == 0 }

// linearScanMax is the set size below which membership and insertion-point
// queries scan linearly instead of binary-searching: on the tiny sets DynDens
// manipulates (|C| ≤ Nmax) a predictable scan beats the search's data-
// dependent branches.
const linearScanMax = 8

// Search returns the smallest index i with s[i] >= v (len(s) if none) — the
// lower bound of v in the sorted slice s. Small slices are scanned linearly;
// larger ones use a branch-free halving search (the conditional advance
// compiles to a CMOV, so the loop has no data-dependent branches), avoiding
// sort.Search's closure indirection. It is the shared sorted-[]Vertex lookup
// primitive: sets here use it for membership and insertion points, and the
// graph's sorted neighbourhood vectors use it for point updates.
func Search(s []Vertex, v Vertex) int {
	n := len(s)
	if n <= linearScanMax {
		for i, x := range s {
			if x >= v {
				return i
			}
		}
		return n
	}
	lo := 0
	for n > 1 {
		half := n >> 1
		if s[lo+half-1] < v {
			lo += half
		}
		n -= half
	}
	if s[lo] < v {
		lo++
	}
	return lo
}

// Contains reports whether v is an element of s.
func (s Set) Contains(v Vertex) bool {
	i := Search(s, v)
	return i < len(s) && s[i] == v
}

// Max returns the largest element. It panics on the empty set.
func (s Set) Max() Vertex {
	if len(s) == 0 {
		panic("vset: Max of empty set")
	}
	return s[len(s)-1]
}

// Equal reports whether s and t contain exactly the same vertices.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of s with its own backing array.
func (s Set) Clone() Set {
	if len(s) == 0 {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Add returns s ∪ {v}. If v is already present the receiver is returned
// unchanged (it is safe to use the result without copying).
func (s Set) Add(v Vertex) Set {
	i := Search(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	out := make(Set, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, v)
	out = append(out, s[i:]...)
	return out
}

// AddInto writes s ∪ {v} into dst, reusing dst's capacity, and returns the
// result (which aliases dst's backing array unless it had to grow). It is the
// scratch-buffer form of Add used by the engine's exploration hot path: a
// caller that owns dst can build candidate sets without allocating. dst must
// not alias s.
func AddInto(dst []Vertex, s Set, v Vertex) Set {
	dst = append(dst[:0], s...)
	return insertInto(dst, v)
}

// Add2Into writes s ∪ {u, v} into dst, reusing dst's capacity, and returns
// the result. It is the scratch-buffer form of s.Add(u).Add(v), used when the
// engine augments a base subgraph with a whole edge. dst must not alias s.
func Add2Into(dst []Vertex, s Set, u, v Vertex) Set {
	dst = append(dst[:0], s...)
	return insertInto(insertInto(dst, u), v)
}

// insertInto inserts v into the sorted slice s in place (growing via append
// only when capacity is exhausted); duplicates are left untouched.
func insertInto(s []Vertex, v Vertex) Set {
	i := Search(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) {
		switch {
		case j >= len(t) || s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// ContainsAll reports whether every element of t is also in s.
func (s Set) ContainsAll(t Set) bool {
	i, j := 0, 0
	for j < len(t) {
		if i >= len(s) {
			return false
		}
		switch {
		case s[i] < t[j]:
			i++
		case s[i] == t[j]:
			i++
			j++
		default:
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the set, suitable for use as a map
// key in ground-truth enumerations and tests.
func (s Set) Key() string {
	if len(s) == 0 {
		return ""
	}
	var b strings.Builder
	for i, v := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	return b.String()
}

// CompareKeys is strings.Compare(a.Key(), b.Key()) without building either
// string: the canonical order of subgraph identities, in which "1,10" sorts
// before "1,2". Two keys first differ inside the first element the sets
// differ in, so that element decides — and a decimal that is a prefix of the
// other sorts first, because what follows it is the end of the key or a ','
// and both sort below every digit. It allocates nothing.
func CompareKeys(a, b Set) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return compareDecimal(a[i], b[i])
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compareDecimal orders two distinct vertices as their decimal strings order.
func compareDecimal(x, y Vertex) int {
	if (x < 0) != (y < 0) { // '-' sorts below every digit
		if x < 0 {
			return -1
		}
		return 1
	}
	// Same sign: the magnitudes' digit strings decide. Pad the shorter with
	// zeros to the longer's length; equal then means it was a proper prefix.
	mx, my := magnitude(x), magnitude(y)
	px, py := mx, my
	for lx, ly := mx, my; lx >= 10 || ly >= 10; lx, ly = lx/10, ly/10 {
		if lx < 10 {
			px *= 10
		}
		if ly < 10 {
			py *= 10
		}
	}
	if px != py {
		return cmp.Compare(px, py)
	}
	return cmp.Compare(mx, my)
}

func magnitude(v Vertex) uint64 {
	if v < 0 {
		return uint64(-int64(v))
	}
	return uint64(v)
}

// String implements fmt.Stringer.
func (s Set) String() string { return "{" + s.Key() + "}" }
