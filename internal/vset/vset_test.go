package vset

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	s := New(5, 3, 5, 1, 3)
	want := Set{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("New(5,3,5,1,3) = %v, want %v", s, want)
	}
}

func TestNewEmpty(t *testing.T) {
	s := New()
	if !s.Empty() || s.Len() != 0 {
		t.Fatalf("New() should be empty, got %v", s)
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSorted on unsorted input did not panic")
		}
	}()
	FromSorted([]Vertex{3, 1})
}

func TestContains(t *testing.T) {
	s := New(2, 4, 9)
	for _, v := range []Vertex{2, 4, 9} {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false, want true", v)
		}
	}
	for _, v := range []Vertex{1, 3, 5, 10} {
		if s.Contains(v) {
			t.Errorf("Contains(%d) = true, want false", v)
		}
	}
}

func TestAddRemove(t *testing.T) {
	s := New(1, 3)
	s2 := s.Add(2)
	if !s2.Equal(New(1, 2, 3)) {
		t.Fatalf("Add(2) = %v", s2)
	}
	if !s.Equal(New(1, 3)) {
		t.Fatalf("Add mutated receiver: %v", s)
	}
	s3 := s2.Diff(New(1))
	if !s3.Equal(New(2, 3)) {
		t.Fatalf("Diff({1}) = %v", s3)
	}
	if got := s2.Add(2); !got.Equal(s2) {
		t.Fatalf("Add of existing element changed set: %v", got)
	}
	if got := s2.Diff(New(99)); !got.Equal(s2) {
		t.Fatalf("Diff of an absent element changed set: %v", got)
	}
}

// TestMinMax: New sorts, so the least element is s[0], and Max is the last.
func TestMinMax(t *testing.T) {
	s := New(7, 2, 9)
	if s[0] != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %d/%d, want 2/9", s[0], s.Max())
	}
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max of empty set did not panic")
		}
	}()
	New().Max()
}

// TestUnionIntersectDiff checks Union and Diff, and the intersection as
// a ∖ (a ∖ b).
func TestUnionIntersectDiff(t *testing.T) {
	a := New(1, 2, 3, 5)
	b := New(2, 4, 5, 6)
	if got := a.Union(b); !got.Equal(New(1, 2, 3, 4, 5, 6)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Diff(a.Diff(b)); !got.Equal(New(2, 5)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(New(1, 3)) {
		t.Errorf("Diff = %v", got)
	}
	if got := b.Diff(a); !got.Equal(New(4, 6)) {
		t.Errorf("Diff reversed = %v", got)
	}
}

func TestContainsAll(t *testing.T) {
	a := New(1, 2, 3, 5)
	if !a.ContainsAll(New(2, 5)) {
		t.Error("ContainsAll({2,5}) = false")
	}
	if a.ContainsAll(New(2, 4)) {
		t.Error("ContainsAll({2,4}) = true")
	}
	if !a.ContainsAll(New()) {
		t.Error("ContainsAll(empty) = false")
	}
}

func TestKeyAndString(t *testing.T) {
	s := New(3, 1, 2)
	if s.Key() != "1,2,3" {
		t.Errorf("Key = %q", s.Key())
	}
	if s.String() != "{1,2,3}" {
		t.Errorf("String = %q", s.String())
	}
	if New().Key() != "" {
		t.Errorf("empty Key = %q", New().Key())
	}
}

// Property: New always produces a strictly increasing slice that contains
// exactly the distinct input values.
func TestNewProperties(t *testing.T) {
	f := func(vs []int32) bool {
		s := New(vs...)
		for i := 1; i < len(s); i++ {
			if s[i-1] >= s[i] {
				return false
			}
		}
		seen := map[int32]bool{}
		for _, v := range vs {
			seen[v] = true
		}
		if len(seen) != s.Len() {
			return false
		}
		for _, v := range vs {
			if !s.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: union/intersection/difference agree with a map-based model.
func TestSetAlgebraProperties(t *testing.T) {
	f := func(xs, ys []int32) bool {
		a, b := New(xs...), New(ys...)
		model := func(pred func(v int32) bool) Set {
			var all []int32
			all = append(all, xs...)
			all = append(all, ys...)
			seen := map[int32]bool{}
			var out []int32
			for _, v := range all {
				if !seen[v] && pred(v) {
					seen[v] = true
					out = append(out, v)
				}
			}
			return New(out...)
		}
		union := model(func(v int32) bool { return a.Contains(v) || b.Contains(v) })
		inter := model(func(v int32) bool { return a.Contains(v) && b.Contains(v) })
		diff := model(func(v int32) bool { return a.Contains(v) && !b.Contains(v) })
		return a.Union(b).Equal(union) && a.Diff(a.Diff(b)).Equal(inter) && a.Diff(b).Equal(diff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add then Diff of the added vertex round-trips for vertices not
// already present.
func TestAddRemoveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(10)
		vs := make([]Vertex, n)
		for j := range vs {
			vs[j] = Vertex(rng.Intn(50))
		}
		s := New(vs...)
		v := Vertex(rng.Intn(50))
		if s.Contains(v) {
			continue
		}
		if got := s.Add(v).Diff(New(v)); !got.Equal(s) {
			t.Fatalf("Add(%d).Diff({%d}) = %v, want %v", v, v, got, s)
		}
	}
}

func TestUnionIsSorted(t *testing.T) {
	f := func(xs, ys []int32) bool {
		u := New(xs...).Union(New(ys...))
		return sort.SliceIsSorted(u, func(i, j int) bool { return u[i] < u[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCompareKeysMatchesKeyOrder pins CompareKeys to its definition,
// strings.Compare over the Key strings, on the shapes where element order and
// string order part ways — prefix sets, decimals that are prefixes of one
// another, negative vertices, the int32 extremes — and on random sets; and
// pins that it allocates nothing.
func TestCompareKeysMatchesKeyOrder(t *testing.T) {
	sets := []Set{
		nil, {0}, {1}, {1, 10}, {1, 2}, {12}, {1, 2, 3}, {10}, {100}, {2}, {19}, {20},
		{-1}, {-10}, {-2}, {-1, 1}, {-12, -1}, {0, 10}, {0, 1},
		{math.MaxInt32}, {1, math.MaxInt32}, {214748364}, {math.MinInt32}, {math.MinInt32, math.MaxInt32},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		vs := make([]Vertex, rng.Intn(6))
		for j := range vs {
			switch rng.Intn(3) {
			case 0:
				vs[j] = Vertex(rng.Intn(25) - 5)
			case 1:
				vs[j] = Vertex(rng.Intn(3000) - 300)
			default:
				vs[j] = Vertex(rng.Uint32())
			}
		}
		sets = append(sets, New(vs...))
	}
	for _, a := range sets {
		for _, b := range sets {
			if got, want := CompareKeys(a, b), strings.Compare(a.Key(), b.Key()); got != want {
				t.Fatalf("CompareKeys(%v, %v) = %d, strings.Compare(%q, %q) = %d", a, b, got, a.Key(), b.Key(), want)
			}
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range sets[:64] {
			sinkInt += CompareKeys(sets[i], sets[len(sets)-1-i])
		}
	})
	if allocs != 0 {
		t.Fatalf("CompareKeys allocates %v times per 64 comparisons, want 0", allocs)
	}
}
