package index

import (
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/vset"
)

// refDenseContainingEither is the walk AppendDensePaired replaced, kept as its
// reference: the subtrees on the larger endpoint's inverted list, then those on
// the smaller's with descent cut at children labelled with the larger.
func refDenseContainingEither(ix *Index, a, b Vertex) []*Node {
	var subtree func(dst []*Node, n *Node, cut Vertex) []*Node
	subtree = func(dst []*Node, n *Node, cut Vertex) []*Node {
		for _, child := range n.kids.nodes {
			if child.star || child.label == cut {
				continue
			}
			if child.dense {
				dst = append(dst, child)
			}
			dst = subtree(dst, child, cut)
		}
		return dst
	}
	under := func(dst []*Node, u, cut Vertex) []*Node {
		for head := ix.labels.Get(u).head; head != nil; head = head.invNext {
			if head.dense {
				dst = append(dst, head)
			}
			dst = subtree(dst, head, cut)
		}
		return dst
	}
	if a > b {
		a, b = b, a
	}
	return under(under(nil, b, Star), a, b)
}

// TestPairedWalkMatchesReference builds random indexes — dense nodes over
// pure-prefix nodes, star children, evictions that prune, Nmax from 3 to 7 —
// and checks, for endpoint pairs in both argument orders that include vertices
// absent from the index and vertices below, between and above every label,
// that AppendDensePaired returns the reference walk's nodes in its order less
// the sets holding one endpoint that have Nmax vertices or a dense partner,
// that it counts the latter, that every partner is the node of the set
// extended by the missing endpoint (the node itself iff the set holds both),
// that split separates the sets holding the larger endpoint from the rest, and
// that AppendDenseContainingBoth is the reference filter of
// AppendDenseContaining.
func TestPairedWalkMatchesReference(t *testing.T) {
	// Labels are even — 0 (the root's zero label) to 22 in even trials, 2 to 24
	// in odd ones — so odd endpoints, and 0 or 26, have no node.
	const labels = 12
	rng := rand.New(rand.NewSource(11))
	var selfPartner, densePartner, prefixPartner, noPartner, full int
	for trial := 0; trial < 40; trial++ {
		nmax := 3 + trial%5
		ix := New(nmax)
		for op := 0; op < 30+rng.Intn(300); op++ {
			var c vset.Set
			for n := 2 + rng.Intn(nmax-1); len(c) < n; {
				c = c.Add(Vertex(2*rng.Intn(labels) + 2*(trial%2)))
			}
			switch node := ix.LookupDense(c); {
			case node == nil:
				ix.InsertDense(c, 1)
			case rng.Intn(3) == 0:
				ix.InsertStar(node)
			default:
				ix.EvictDense(node)
			}
		}
		if msg := ix.Validate(); msg != "" {
			t.Fatal(msg)
		}
		var nodes, partners []*Node // reused across calls, as the engine does
		for a := Vertex(0); a <= 2*labels+2; a++ {
			for b := Vertex(0); b <= 2*labels+2; b++ {
				if a == b {
					continue
				}
				var split, indexed int
				nodes, partners, split, indexed = ix.AppendDensePaired(nodes[:0], partners[:0], a, b)
				var want []*Node
				wantIndexed := 0
				for _, n := range refDenseContainingEither(ix, a, b) {
					c := n.Set()
					switch p := ix.Lookup(c.Add(a).Add(b)); {
					case p == n:
						want = append(want, n)
					case c.Len() == nmax:
						full++
					case p != nil && p.dense:
						wantIndexed++
					default:
						want = append(want, n)
					}
				}
				if !slices.Equal(nodes, want) || indexed != wantIndexed {
					t.Fatalf("trial %d (%d,%d): nodes %v and %d indexed, reference %v and %d", trial, a, b, keys(nodes), indexed, keys(want), wantIndexed)
				}
				densePartner += indexed
				if len(partners) != len(nodes) {
					t.Fatalf("trial %d (%d,%d): %d partners for %d nodes", trial, a, b, len(partners), len(nodes))
				}
				for i, n := range nodes {
					c := n.Set()
					if hasHi := c.Contains(max(a, b)); hasHi != (i < split) {
						t.Fatalf("trial %d (%d,%d): %v at %d, split %d", trial, a, b, c, i, split)
					}
					if both := c.Contains(a) && c.Contains(b); both != (partners[i] == n) {
						t.Fatalf("trial %d (%d,%d): %v holds both = %v, partner %v", trial, a, b, c, both, partners[i])
					}
					if want := ix.Lookup(c.Add(a).Add(b)); partners[i] != want {
						t.Fatalf("trial %d (%d,%d): partner of %v is %v, Lookup says %v", trial, a, b, c, partners[i], want)
					}
					switch p := partners[i]; {
					case p == n:
						selfPartner++
					case p == nil:
						noPartner++
					default:
						prefixPartner++
					}
				}

				var both []*Node
				for _, n := range ix.AppendDenseContaining(nil, a) {
					if n.Set().Contains(b) {
						both = append(both, n)
					}
				}
				if got := ix.AppendDenseContainingBoth(nil, a, b); !slices.Equal(got, both) {
					t.Fatalf("trial %d: AppendDenseContainingBoth(%d,%d) = %v, want %v", trial, a, b, keys(got), keys(both))
				}
			}
		}
	}
	if min(selfPartner, densePartner, prefixPartner, noPartner, full) < 100 {
		t.Fatalf("vacuous: %d self, %d dense, %d pure-prefix and %d nil partners, %d sets of Nmax vertices", selfPartner, densePartner, prefixPartner, noPartner, full)
	}
}
