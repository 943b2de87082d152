package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dyndens/internal/vset"
)

func keys(nodes []*Node) []string {
	out := listed(nodes)
	sort.Strings(out)
	return out
}

// listed returns the sets of nodes in their order.
func listed(nodes []*Node) []string {
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Set().Key())
	}
	return out
}

func TestInsertLookupEvict(t *testing.T) {
	ix := New(8)
	c := vset.New(1, 3, 4)
	n := ix.InsertDense(c, 2.5)
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	if got := ix.LookupDense(c); got != n {
		t.Fatal("LookupDense did not return the inserted node")
	}
	if !n.Set().Equal(c) {
		t.Fatalf("Set() = %v, want %v", n.Set(), c)
	}
	if n.Score() != 2.5 || n.Card() != 3 {
		t.Fatalf("Score/Card = %v/%d", n.Score(), n.Card())
	}
	// Prefix {1,3} exists as an interior node but is not dense.
	if ix.LookupDense(vset.New(1, 3)) != nil {
		t.Fatal("prefix should not be dense")
	}
	if ix.Lookup(vset.New(1, 3)) == nil {
		t.Fatal("prefix node should exist")
	}
	ix.EvictDense(n)
	if ix.Len() != 0 {
		t.Fatalf("Len after evict = %d", ix.Len())
	}
	if ix.Lookup(c) != nil {
		t.Fatal("node should have been pruned")
	}
	if ix.NodeCount() != 0 {
		t.Fatalf("NodeCount after evict = %d", ix.NodeCount())
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
}

func TestEvictKeepsSharedPrefixes(t *testing.T) {
	ix := New(8)
	a := ix.InsertDense(vset.New(1, 3), 1)
	b := ix.InsertDense(vset.New(1, 3, 4), 2)
	ix.InsertDense(vset.New(1, 3, 5), 2)
	ix.EvictDense(b)
	if ix.LookupDense(vset.New(1, 3, 4)) != nil {
		t.Fatal("{1,3,4} should be gone")
	}
	if ix.LookupDense(vset.New(1, 3)) != a {
		t.Fatal("{1,3} should still be dense")
	}
	if ix.LookupDense(vset.New(1, 3, 5)) == nil {
		t.Fatal("{1,3,5} should still be dense")
	}
	// Evicting a dense interior node keeps the node because it has children.
	ix.EvictDense(a)
	if ix.Lookup(vset.New(1, 3)) == nil {
		t.Fatal("{1,3} node must remain while {1,3,5} exists")
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
}

func TestInsertDenseTwiceUpdatesScore(t *testing.T) {
	ix := New(8)
	ix.InsertDense(vset.New(2, 7), 1.0)
	n := ix.InsertDense(vset.New(2, 7), 1.5)
	if ix.Len() != 1 || n.Score() != 1.5 {
		t.Fatalf("Len=%d score=%v", ix.Len(), n.Score())
	}
}

func TestScoreMutators(t *testing.T) {
	ix := New(8)
	n := ix.InsertDense(vset.New(1, 2), 1.0)
	if got := ix.AddScore(n, 0.25); got != 1.25 {
		t.Fatalf("AddScore = %v", got)
	}
	ix.SetScore(n, 3)
	if n.Score() != 3 {
		t.Fatalf("SetScore result = %v", n.Score())
	}
}

func TestDenseContaining(t *testing.T) {
	ix := New(8)
	// Mirrors Figure 3 of the paper: dense subgraphs {1,3}, {1,3,4}, {1,3,5},
	// {3,4,5}, {4,5}.
	for _, c := range []vset.Set{
		vset.New(1, 3), vset.New(1, 3, 4), vset.New(1, 3, 5), vset.New(3, 4, 5), vset.New(4, 5),
	} {
		ix.InsertDense(c, 1)
	}
	got := keys(ix.AppendDenseContaining(nil, 3))
	want := []string{"1,3", "1,3,4", "1,3,5", "3,4,5"}
	if len(got) != len(want) {
		t.Fatalf("DenseContaining(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DenseContaining(3) = %v, want %v", got, want)
		}
	}
	if got := keys(ix.AppendDenseContaining(nil, 5)); len(got) != 3 {
		t.Fatalf("DenseContaining(5) = %v", got)
	}
	if got := ix.AppendDenseContaining(nil, 99); len(got) != 0 {
		t.Fatalf("DenseContaining(99) = %v", got)
	}
}

func TestDenseContainingEitherNoDuplicates(t *testing.T) {
	ix := New(3)
	sets := []vset.Set{
		vset.New(1, 3), vset.New(1, 3, 4), vset.New(1, 3, 5), vset.New(3, 4, 5),
		vset.New(4, 5), vset.New(1, 4), vset.New(2, 3),
	}
	for _, c := range sets {
		ix.InsertDense(c, 1)
	}
	// Every inserted set containing 3 or 4, at most once: {1,3} and {1,4}
	// (whose union {1,3,4} is indexed) and {4,5} (union {3,4,5}) are counted
	// instead, and {1,3,5} is left out: its union is above Nmax.
	nodes, partners, split, indexed := ix.AppendDensePaired(nil, nil, 3, 4)
	got := keys(nodes)
	want := []string{"1,3,4", "2,3", "3,4,5"}
	if !slices.Equal(got, want) || indexed != 3 {
		t.Fatalf("AppendDensePaired = %v and %d indexed, want %v and 3", got, indexed, want)
	}
	// {1,3,4} and {3,4,5} hold both endpoints and are their own partners;
	// {2,3}'s union has no node. The two sets holding 4 come first.
	if len(partners) != len(nodes) || split != 2 {
		t.Fatalf("%d partners for %d nodes, split %d, want 2", len(partners), len(nodes), split)
	}
	for i, n := range nodes {
		var want *Node
		switch n.Set().Key() {
		case "1,3,4", "3,4,5":
			want = n
		}
		if partners[i] != want {
			t.Fatalf("partner of %v = %v, want %v", n.Set(), partners[i], want)
		}
	}
	// Symmetric in argument order.
	swapped, swappedPartners, swappedSplit, swappedIndexed := ix.AppendDensePaired(nil, nil, 4, 3)
	if !slices.Equal(swapped, nodes) || !slices.Equal(swappedPartners, partners) || swappedSplit != split || swappedIndexed != indexed {
		t.Fatal("AppendDensePaired not symmetric")
	}
}

func TestStarNodes(t *testing.T) {
	ix := New(8)
	base := ix.InsertDense(vset.New(1, 3), 5)
	star := ix.InsertStar(base)
	if star == nil || !star.star {
		t.Fatal("InsertStar failed")
	}
	if !ix.HasStar(base) || ix.StarOf(base) != star {
		t.Fatal("HasStar/StarOf inconsistent")
	}
	if star.Card() != 3 || !star.Set().Equal(vset.New(1, 3)) {
		t.Fatalf("star Card/Set = %d/%v", star.Card(), star.Set())
	}
	if ix.StarCount() != 1 {
		t.Fatalf("StarCount = %d", ix.StarCount())
	}
	if got := len(ix.AppendStarNodes(nil)); got != 1 {
		t.Fatalf("StarNodes len = %d", got)
	}
	// Idempotent.
	if again := ix.InsertStar(base); again != star || ix.StarCount() != 1 {
		t.Fatal("InsertStar not idempotent")
	}
	// Star nodes do not show up as dense subgraphs.
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	for _, n := range ix.AppendDenseContaining(nil, 1) {
		if n.star {
			t.Fatal("star node leaked into DenseContaining")
		}
	}
	ix.RemoveStar(base)
	if ix.StarCount() != 0 || ix.HasStar(base) {
		t.Fatal("RemoveStar did not remove")
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
}

// Evicting a base whose ONLY child is its star must take the star with it
// and then prune the whole path; a base that also has a real child loses the
// star but stays as an interior node, the real child now its last.
func TestEvictRemovesStarChild(t *testing.T) {
	ix := New(8)
	base := ix.InsertDense(vset.New(2, 6), 5)
	ix.InsertStar(base)
	ix.EvictDense(base)
	if ix.StarCount() != 0 || ix.NodeCount() != 0 || ix.HasVertex(Star) || len(labelsOf(ix)) != 0 {
		t.Fatalf("after evict: stars=%d nodes=%d labels=%v", ix.StarCount(), ix.NodeCount(), labelsOf(ix))
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}

	base = ix.InsertDense(vset.New(2, 6), 5)
	child := ix.InsertDense(vset.New(2, 6, 9), 6)
	star := ix.InsertStar(base)
	if ix.StarOf(base) != star || ix.StarOf(child) != nil {
		t.Fatal("StarOf must find the star behind a real child and nothing under a leaf")
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
	ix.EvictDense(base)
	if ix.StarCount() != 0 || ix.HasStar(base) || ix.Lookup(vset.New(2, 6)) != base || ix.LookupDense(vset.New(2, 6, 9)) != child {
		t.Fatal("evicting a starred interior base must drop only the star")
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
}

// The root is the one wide node of the tree: every indexed set hangs off the
// child labelled with its smallest vertex. Insert and prune well over a
// thousand root children in unrelated orders.
func TestWideRootInsertAndPrune(t *testing.T) {
	const n = 1500
	rng := rand.New(rand.NewSource(7))
	ix := New(8)
	for _, i := range rng.Perm(n) {
		ix.InsertDense(vset.New(Vertex(i), Vertex(i+n)), float64(i))
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
	all := ix.AppendDense(nil)
	if len(all) != n || ix.NodeCount() != 2*n {
		t.Fatalf("%d dense nodes, %d tree nodes, want %d and %d", len(all), ix.NodeCount(), n, 2*n)
	}
	for i, node := range all {
		if !node.Set().Equal(vset.New(Vertex(i), Vertex(i+n))) || node.Score() != float64(i) {
			t.Fatalf("AppendDense[%d] = %v (score %v): not in lexicographic order", i, node.Set(), node.Score())
		}
	}
	for k, i := range rng.Perm(n) {
		ix.EvictDense(ix.LookupDense(vset.New(Vertex(i), Vertex(i+n))))
		if ix.HasVertex(Vertex(i)) || ix.HasVertex(Vertex(i+n)) || ix.NodeCount() != 2*(n-k-1) {
			t.Fatalf("evicting {%d,%d} left its path behind (%d nodes)", i, i+n, ix.NodeCount())
		}
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
}

// labelsOf returns the labels that have at least one prefix-tree node: the
// vertex table's, in its order, then Star while any family exists.
func labelsOf(ix *Index) []Vertex {
	var vs []Vertex
	for v := range ix.labels.All() {
		vs = append(vs, v)
	}
	if ix.stars != nil {
		vs = append(vs, Star)
	}
	return vs
}

// HasVertex reports whether at least one prefix-tree node is labelled v —
// equivalently, whether v belongs to at least one indexed (dense or star)
// subgraph or a prefix path leading to one.
func (ix *Index) HasVertex(v Vertex) bool {
	if v == Star {
		return ix.stars != nil
	}
	return ix.labels.Get(v).head != nil
}

// Labels anywhere in the int32 range below Star live in the vertex table,
// which lists them ascending (Star, kept apart, comes last), and every
// descent finds its root child through them.
func TestVerticesAscendingStarLast(t *testing.T) {
	ids := []Vertex{math.MinInt32, -1 << 30, -5, 0, 7, 1 << 30, math.MaxInt32 - 1}
	ix := New(8)
	var sets []vset.Set
	for i := range ids {
		for _, j := range []int{(i + 1) % len(ids), (i + 3) % len(ids)} {
			c := vset.New(ids[i], ids[j])
			sets = append(sets, c)
			if node := ix.InsertDense(c, 1); i%2 == 0 {
				ix.InsertStar(node)
			}
		}
	}
	want := append(slices.Clone(ids), Star)
	if got := labelsOf(ix); !slices.Equal(got, want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	for _, v := range want {
		if !ix.HasVertex(v) {
			t.Fatalf("HasVertex(%d) = false", v)
		}
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
	for _, c := range sets {
		ix.EvictDense(ix.LookupDense(c))
		if msg := ix.Validate(); msg != "" {
			t.Fatal(msg)
		}
	}
	if got := labelsOf(ix); len(got) != 0 || ix.HasVertex(Star) || ix.HasVertex(0) {
		t.Fatalf("empty index has labels %v", got)
	}
}

// Validate checks every label's slot against the tree: a head with a
// predecessor, a root child that is not the root's child vector's, and a slot
// for a label no node carries are each reported.
func TestValidateChecksSlots(t *testing.T) {
	build := func() *Index {
		ix := New(8)
		ix.InsertDense(vset.New(1, 3), 1)
		ix.InsertDense(vset.New(3, 5), 1)
		ix.InsertStar(ix.InsertDense(vset.New(1, 3, 5), 1))
		if msg := ix.Validate(); msg != "" {
			t.Fatal(msg)
		}
		return ix
	}
	for name, corrupt := range map[string]func(ix *Index){
		"head with a predecessor": func(ix *Index) {
			s := ix.labels.Get(3)
			s.head = s.head.invNext
			ix.labels.Set(3, s)
		},
		"root child dropped": func(ix *Index) {
			s := ix.labels.Get(1)
			s.root = nil
			ix.labels.Set(1, s)
		},
		"root child that is not the root's": func(ix *Index) {
			s := ix.labels.Get(5)
			s.root = s.head
			ix.labels.Set(5, s)
		},
		"slot without a node": func(ix *Index) {
			ix.labels.Set(7, slot{root: ix.Lookup(vset.New(1))})
		},
		"live node on the free list": func(ix *Index) {
			ix.free = append(ix.free, ix.Lookup(vset.New(1, 3, 5)))
		},
		"recycled node listed twice": func(ix *Index) {
			ix.EvictDense(ix.Lookup(vset.New(3, 5)))
			ix.free = append(ix.free, ix.removed...)
		},
	} {
		ix := build()
		corrupt(ix)
		if msg := ix.Validate(); msg == "" {
			t.Errorf("%s: Validate found nothing", name)
		}
	}
}

// lexLess orders vertex sets the way the prefix tree spells them.
func lexLess(a, b vset.Set) bool { return slices.Compare(a, b) < 0 }

// Traversal order is a property of the content, not of the history, wherever
// it can be: AppendDense is lexicographic outright, and the inverted-list
// walks — whose list order is the order of node creation — are lexicographic
// within the subtree of each list node and return the same sets whatever the
// insertion order was. Two indexes with the SAME history agree element by
// element on every walk, which a map-based tree could not promise.
func TestTraversalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sets []vset.Set
	seen := map[string]bool{}
	for len(sets) < 300 {
		var c vset.Set
		for n := 2 + rng.Intn(4); len(c) < n; {
			c = c.Add(Vertex(rng.Intn(14)))
		}
		if !seen[c.Key()] {
			seen[c.Key()] = true
			sets = append(sets, c)
		}
	}
	build := func(order []int) *Index {
		ix := New(8)
		for _, i := range order {
			node := ix.InsertDense(sets[i], float64(i))
			if i%5 == 0 {
				ix.InsertStar(node)
			}
		}
		if msg := ix.Validate(); msg != "" {
			t.Fatal(msg)
		}
		return ix
	}
	order := rng.Perm(len(sets))
	a, twin, b := build(order), build(order), build(rng.Perm(len(sets)))

	sorted := slices.Clone(sets)
	slices.SortFunc(sorted, func(x, y vset.Set) int { return slices.Compare(x, y) })
	for _, ix := range []*Index{a, b} {
		got := ix.AppendDense(nil)
		if len(got) != len(sorted) {
			t.Fatalf("AppendDense returned %d nodes, want %d", len(got), len(sorted))
		}
		for i, node := range got {
			if !node.Set().Equal(sorted[i]) {
				t.Fatalf("AppendDense[%d] = %v, want %v", i, node.Set(), sorted[i])
			}
		}
	}

	// anchor is the prefix of c up to and including the first of vs it meets
	// scanning from the back: the inverted-list node whose subtree holds c.
	anchor := func(c vset.Set, vs ...Vertex) string {
		for _, v := range vs {
			if i, ok := slices.BinarySearch(c, v); ok {
				return c[:i+1].Key()
			}
		}
		t.Fatalf("%v contains none of %v", c, vs)
		return ""
	}
	check := func(name string, walk func(ix *Index) []*Node, vs ...Vertex) {
		ga, gt, gb := walk(a), walk(twin), walk(b)
		if len(ga) != len(gt) || len(ga) != len(gb) {
			t.Fatalf("%s: %d, %d and %d nodes from the same content", name, len(ga), len(gt), len(gb))
		}
		for i := range ga {
			if !ga[i].Set().Equal(gt[i].Set()) {
				t.Fatalf("%s: same history, different order at %d: %v vs %v", name, i, ga[i].Set(), gt[i].Set())
			}
		}
		if ka, kb := keys(ga), keys(gb); !slices.Equal(ka, kb) {
			t.Fatalf("%s: content differs with insertion order: %v vs %v", name, ka, kb)
		}
		for _, got := range [][]*Node{ga, gb} {
			done := map[string]bool{}
			for i, node := range got {
				c := node.Set()
				k := anchor(c, vs...)
				if i > 0 && anchor(got[i-1].Set(), vs...) == k {
					if !lexLess(got[i-1].Set(), c) {
						t.Fatalf("%s: %v before %v inside one subtree", name, got[i-1].Set(), c)
					}
					continue
				}
				if done[k] {
					t.Fatalf("%s: subtree of {%s} visited in two pieces", name, k)
				}
				done[k] = true
			}
		}
	}
	for u := Vertex(0); u < 14; u++ {
		check("AppendDenseContaining", func(ix *Index) []*Node { return ix.AppendDenseContaining(nil, u) }, u)
		v := (u + 1 + Vertex(rng.Intn(13))) % 14
		lo, hi := min(u, v), max(u, v)
		check("AppendDensePaired", func(ix *Index) []*Node {
			nodes, _, _, _ := ix.AppendDensePaired(nil, nil, u, v)
			return nodes
		}, hi, lo)
	}
}

func TestAnnotations(t *testing.T) {
	ix := New(8)
	n := ix.InsertDense(vset.New(1, 2), 1)
	if _, ok := ix.Annotation(n); ok {
		t.Fatal("annotation should not exist before BeginUpdate")
	}
	ix.BeginUpdate()
	ix.Annotate(n, 2)
	if it, ok := ix.Annotation(n); !ok || it != 2 {
		t.Fatalf("Annotation = %d,%v", it, ok)
	}
	ix.BeginUpdate()
	if _, ok := ix.Annotation(n); ok {
		t.Fatal("annotation should reset at next update epoch")
	}
}

// Property: a random sequence of inserts and evicts keeps the index
// consistent with a map-based model and passes Validate.
// A pruned node is handed out again only after the next BeginUpdate, with its
// child vectors' capacity: a set evicted and re-inserted within one pass gets a
// fresh node, so a snapshot of the pass never sees its node stand for another
// set.
func TestPrunedNodeReusedFromNextPass(t *testing.T) {
	ix := New(5)
	ix.BeginUpdate()
	for _, v := range []Vertex{8, 9, 10} {
		ix.InsertDense(vset.New(7, v), 1)
	}
	seven := ix.Lookup(vset.New(7))
	ix.BeginUpdate()
	for _, v := range []Vertex{8, 9, 10} {
		ix.EvictDense(ix.Lookup(vset.New(7, v)))
	}
	if ix.NodeCount() != 0 || len(ix.removed) != 4 || len(ix.free) != 0 {
		t.Fatalf("after the evictions: %d nodes, %d removed, %d free; want 0, 4, 0", ix.NodeCount(), len(ix.removed), len(ix.free))
	}
	again := ix.InsertDense(vset.New(7), 1)
	if again == seven {
		t.Fatal("a node pruned in this pass was reused in the same pass")
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
	ix.BeginUpdate()
	if len(ix.removed) != 0 || len(ix.free) != 4 {
		t.Fatalf("after BeginUpdate: %d removed, %d free; want 0, 4", len(ix.removed), len(ix.free))
	}
	// The free list is last in, first out: {7} was pruned last.
	if n := ix.InsertDense(vset.New(11), 1); n != seven || n.Set().Key() != "11" || !n.Dense() || n.Card() != 1 {
		t.Fatalf("the recycled node did not come back as {11}: %p (want %p), %v", n, seven, n.Set())
	}
	if cap(seven.kids.labels) < 3 || cap(seven.kids.nodes) < 3 || len(seven.kids.nodes) != 0 {
		t.Fatalf("the recycled node lost its child vectors: len %d, caps %d/%d", len(seven.kids.nodes), cap(seven.kids.labels), cap(seven.kids.nodes))
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
	// The lists are bounded: a pass that prunes more parks only what fits.
	ix.BeginUpdate()
	for v := Vertex(100); v < 100+2*nodeFreeLimit; v++ {
		ix.InsertDense(vset.New(v), 1)
	}
	ix.BeginUpdate()
	for v := Vertex(100); v < 100+2*nodeFreeLimit; v++ {
		ix.EvictDense(ix.Lookup(vset.New(v)))
	}
	ix.BeginUpdate()
	if len(ix.removed)+len(ix.free) != nodeFreeLimit {
		t.Fatalf("%d removed and %d free nodes, want %d together", len(ix.removed), len(ix.free), nodeFreeLimit)
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
}

func TestRandomOperationsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ix := New(6) // sets of up to 5 vertices; families of bases of 5 go untracked
		model := map[string]float64{}
		stars := map[string]bool{}
		for op := 0; op < 500; op++ {
			if op%7 == 0 { // a new pass: the nodes pruned so far become reusable
				ix.BeginUpdate()
			}
			// Random set of 2–5 vertices out of 12.
			n := 2 + rng.Intn(4)
			var c vset.Set
			for len(c) < n {
				c = c.Add(Vertex(rng.Intn(12)))
			}
			switch r := rng.Float64(); {
			case r < 0.55:
				score := rng.Float64() * 10
				ix.InsertDense(c, score)
				model[c.Key()] = score
			case r < 0.7:
				// Star families come and go under dense bases; an evicted
				// base takes its family along.
				if node := ix.LookupDense(c); node != nil && rng.Intn(2) == 0 {
					ix.InsertStar(node)
					stars[c.Key()] = true
				} else {
					ix.RemoveStar(node)
					delete(stars, c.Key())
				}
			default:
				if node := ix.LookupDense(c); node != nil {
					ix.EvictDense(node)
					delete(model, c.Key())
					delete(stars, c.Key())
				}
			}
			// Validate checks, for every node and for the inverted-list
			// heads: label and node vectors of equal length, labels strictly
			// increasing, a star flag exactly on the Star label (so a '*'
			// child can only be last).
			if msg := ix.Validate(); msg != "" {
				t.Fatalf("trial %d op %d: %s", trial, op, msg)
			}
		}
		if ix.Len() != len(model) || ix.StarCount() != len(stars) {
			t.Fatalf("trial %d: Len=%d model=%d, StarCount=%d model=%d", trial, ix.Len(), len(model), ix.StarCount(), len(stars))
		}
		for _, star := range ix.AppendStarNodes(nil) {
			if base := star.parent; !stars[base.Set().Key()] || ix.StarOf(base) != star {
				t.Fatalf("trial %d: unexpected or unreachable star under %v", trial, base.Set())
			}
		}
		all := ix.AppendDense(nil)
		for i, node := range all {
			if i > 0 && !lexLess(all[i-1].Set(), node.Set()) {
				t.Fatalf("trial %d: AppendDense not lexicographic: %v before %v", trial, all[i-1].Set(), node.Set())
			}
			want, ok := model[node.Set().Key()]
			if !ok {
				t.Fatalf("trial %d: unexpected dense %v", trial, node.Set())
			}
			if node.Score() != want {
				t.Fatalf("trial %d: score mismatch for %v", trial, node.Set())
			}
		}
		// Containment queries agree with the model.
		for u := Vertex(0); u < 12; u++ {
			got := keys(ix.AppendDenseContaining(nil, u))
			var want []string
			for k := range model {
				if vsetFromKeyContains(k, u) {
					want = append(want, k)
				}
			}
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("trial %d: DenseContaining(%d) size %d want %d", trial, u, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: DenseContaining(%d) mismatch", trial, u)
				}
			}
		}
		checkFamilies(t, ix, fmt.Sprintf("trial %d", trial))
	}
}

// checkFamilies holds the family queries to the '*' list: FamiliesOf(u) is
// the tracked families whose base holds u, oldest first; InStarOrder of the
// postings of a vertex range is the '*' list's tracked families touching it,
// in list order; Families(k) counts and bounds those of base k, exactly after
// the full walk of AppendStarNodes, and Ldexp scales the bound with the
// scores.
func checkFamilies(t *testing.T, ix *Index, label string) {
	t.Helper()
	list := ix.AppendStarNodes(nil)
	var all []*Node
	for u := Vertex(0); u < 12; u++ {
		var want []*Node
		for _, star := range slices.Backward(list) {
			if star.Card()-1 <= ix.nmax-2 && star.parent.Set().Contains(u) {
				want = append(want, star)
			}
		}
		if got := ix.FamiliesOf(u); !slices.Equal(got, want) {
			t.Fatalf("%s: FamiliesOf(%d) = %v, want %v", label, u, listed(got), listed(want))
		}
		if u%2 == 0 {
			all = append(all, ix.FamiliesOf(u)...)
		}
	}
	var want []*Node
	for _, star := range list {
		base := star.parent.Set()
		if star.Card()-1 <= ix.nmax-2 && slices.ContainsFunc(base, func(v Vertex) bool { return v%2 == 0 }) {
			want = append(want, star)
		}
	}
	if got := InStarOrder(all); !slices.Equal(got, want) {
		t.Fatalf("%s: InStarOrder = %v, want %v", label, listed(got), listed(want))
	}
	total := 0
	for k := 0; k <= ix.nmax; k++ {
		count, bound := ix.Families(k)
		most := math.Inf(-1)
		n := 0
		for _, star := range list {
			if star.Card()-1 == k && k <= ix.nmax-2 {
				n++
				most = max(most, star.Score())
			}
		}
		if count != n || bound != most {
			t.Fatalf("%s: Families(%d) = %d, %v after a full walk, want %d, %v", label, k, count, bound, n, most)
		}
		total += n
		ix.Ldexp(-3)
		if _, scaled := ix.Families(k); scaled != math.Ldexp(most, -3) {
			t.Fatalf("%s: Ldexp(-3) scales the bound of base %d from %v to %v", label, k, most, scaled)
		}
		ix.Ldexp(3)
	}
	if ix.TrackedFamilies() != total {
		t.Fatalf("%s: TrackedFamilies() = %d, want %d", label, ix.TrackedFamilies(), total)
	}
}

func vsetFromKeyContains(key string, u Vertex) bool {
	var c vset.Set
	cur := 0
	neg := false
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == ',' {
			v := cur
			if neg {
				v = -v
			}
			c = c.Add(Vertex(v))
			cur, neg = 0, false
			continue
		}
		if key[i] == '-' {
			neg = true
			continue
		}
		cur = cur*10 + int(key[i]-'0')
	}
	return c.Contains(u)
}

// TestReachLifecycle: a node starts without a certificate, loses the one it
// was given when it leaves the dense set (also when its node stays behind as
// a prefix and is inserted again), and RaiseReach never certifies a node that
// holds none.
func TestReachLifecycle(t *testing.T) {
	ix := New(8)
	n := ix.InsertDense(vset.New(1, 3), 1)
	ix.InsertDense(vset.New(1, 3, 5), 2)
	if !math.IsInf(n.Reach(), 1) {
		t.Fatalf("new node has reach %v", n.Reach())
	}
	n.RaiseReach(2)
	if !math.IsInf(n.Reach(), 1) {
		t.Fatalf("RaiseReach certified a node without a certificate: %v", n.Reach())
	}
	n.SetReach(0.5)
	n.RaiseReach(0.25)
	n.RaiseReach(0.75)
	if n.Reach() != 0.75 {
		t.Fatalf("reach = %v after raising 0.5 by 0.25 and 0.75", n.Reach())
	}
	ix.InsertDense(vset.New(1, 3), 1.5) // a score refresh keeps it
	if n.Reach() != 0.75 {
		t.Fatalf("re-inserting a dense node changed its reach to %v", n.Reach())
	}
	ix.EvictDense(n) // stays as the prefix of {1,3,5}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
	if again := ix.InsertDense(vset.New(1, 3), 1); again != n || !math.IsInf(n.Reach(), 1) {
		t.Fatalf("re-admitted node came back with reach %v", again.Reach())
	}
	n.SetReach(1)
	n.DropReach()
	if !math.IsInf(n.Reach(), 1) {
		t.Fatalf("DropReach left %v", n.Reach())
	}
}

// TestDropParentReach: the parents of D = {2,4,6,8} are found wherever they
// sit in the tree — under D's own path or on a path of their own — and only
// they lose their certificate; a parent with no node is skipped.
func TestDropParentReach(t *testing.T) {
	ix := New(8)
	d := ix.InsertDense(vset.New(2, 4, 6, 8), 9)
	certified := map[string]*Node{}
	for _, c := range []vset.Set{
		vset.New(2, 4, 6), vset.New(2, 4, 8), vset.New(4, 6, 8), // parents; {2,6,8} has no node
		vset.New(2, 4), vset.New(2, 4, 6, 9), vset.New(4, 6), vset.New(6, 8), // not parents
	} {
		n := ix.InsertDense(c, 1)
		n.SetReach(1)
		certified[c.Key()] = n
	}
	d.SetReach(1)
	ix.DropParentReach(d)
	for key, n := range certified {
		parent := key == "2,4,6" || key == "2,4,8" || key == "4,6,8"
		if got := math.IsInf(n.Reach(), 1); got != parent {
			t.Errorf("{%s}: certificate dropped = %v, want %v", key, got, parent)
		}
	}
	if d.Reach() != 1 {
		t.Errorf("D's own certificate changed to %v", d.Reach())
	}
	ix.EvictDense(d)
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
	// A pair's parents are singletons, which the walk reaches and leaves alone.
	pair := ix.InsertDense(vset.New(4, 6), 1)
	ix.DropParentReach(pair)
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
}
