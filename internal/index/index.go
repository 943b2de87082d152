// Package index implements the in-memory dense-subgraph index used by
// DynDens (Section 3.2.1 of the paper).
//
// Dense subgraphs are stored in a prefix tree: the path to a node is the
// sorted vertex sequence of the subgraph it represents, so heavily
// overlapping dense subgraphs share prefixes and memory. Every tree node is
// additionally linked into the inverted list of its label vertex (embedded as
// a doubly-linked list through the nodes themselves), which makes "iterate
// every dense subgraph containing vertex u" a traversal of the subtrees
// hanging off u's inverted list; because a subgraph's path visits u exactly
// once, each dense subgraph is reported exactly once.
//
// A node keeps its children the way the graph index keeps a neighbourhood
// (graph.adjacency): two parallel vectors, labels in strictly increasing
// order and the child nodes beside them, searched with vset.Search and
// edited in place (nodeVec). A leaf owns neither vector and only the root is
// ever wide. Every real label has one slot in a vertex table (vset.Table),
// the index's per-vertex directory: the head of the label's inverted list and
// the root's child with that label. One probe thus starts every inverted-list
// walk and every descent from the root, whose wide vector is kept only for
// the walks that need its order; '*' keeps its list head apart. No state of
// the index is a Go map, which gives three properties the engine relies on: a
// step down the tree is a search of a few vertices; '*' — larger than every
// real vertex — is by construction the LAST child, so the ImplicitTooDense
// family of a node is read in O(1); and every traversal visits children in
// label order, so AppendDense yields the indexed sets in lexicographic order
// and every walk is a deterministic function of the index's history (an
// inverted list is visited newest node first).
//
// The two iterations of Algorithm 1 are walks of that layout, and sorted paths
// let them skip what the update cannot touch. A negative update of (a, b)
// reads the sets holding both off a's list (AppendDenseContainingBoth): under
// a list node a larger b is held by the subtrees of the children labelled b —
// no sibling above b is entered — and a smaller b is on the node's own path or
// nowhere below it. A positive update visits the sets holding either endpoint
// (AppendDensePaired, in the order of Section 3.2.2) and learns of each its
// partner: the node of the set extended by the endpoint it lacks, nil if that
// union has no node, the set's own node if it holds both. The union's path
// runs beside the set's, so no lookup is needed: while every label is below
// the larger endpoint the partner is the node's own child labelled with it
// (the child the Section 3.2.2 cut skips); past the missing endpoint, the
// partner of a child is the partner's child of the same label, found by
// merging two sorted child vectors; a node of the larger endpoint's list gets
// there by one relative descent (pairWalk.withLo). A partner is a pointer, not
// a verdict: a positive update only adds to the index, so no node is pruned,
// the pointer stays the union's node, and its dense flag read when the
// question is asked is the live answer to "is the union indexed?"; only a
// union without a node at the snapshot must be looked up.
//
// The index also supports the ImplicitTooDense optimisation (Section 3.2.3):
// a fictitious vertex '*' (lexicographically larger than every real vertex)
// whose node under a too-dense subgraph C stands for every supergraph C∪{y}
// with y disconnected from C, so that none of those |V| supergraphs has to be
// inserted explicitly.
//
// A dense node also carries its reach, the engine's exploration certificate:
// an upper bound on the weight Γ_C·ê_y any vertex y puts into the node's set C
// while C∪{y} is not explicitly indexed, +Inf while nothing is known. It is a
// fact about the graph as much as the index, so the engine derives and raises
// it (core.Engine.explore); the index only forgets it where set membership
// breaks it: a node entering or leaving the dense set restarts at +Inf, and
// DropParentReach clears the parents of a set about to be evicted. A node that
// is not dense holds +Inf, and +Inf rather than a flag keeps Node in its
// 128-byte size class.
package index

import (
	"math"
	"slices"

	"dyndens/internal/vset"
)

// Vertex aliases the graph vertex type.
type Vertex = vset.Vertex

// Star is the fictitious vertex used by ImplicitTooDense. It compares larger
// than any real vertex, as the paper requires.
const Star Vertex = math.MaxInt32

// Node is a prefix-tree node. A node represents the vertex set spelled out by
// the path from the root; it carries subgraph information (score, density
// bookkeeping) only when Dense() is true. Nodes are owned by the Index and
// must not be retained across Evict calls.
type Node struct {
	label  Vertex
	parent *Node
	kids   nodeVec // children by label; empty (and unallocated) for a leaf

	dense bool
	star  bool // this node is a '*' child: it represents parent.Set() ∪ {y} for disconnected y
	score float64
	reach float64 // exploration certificate (see the package comment); +Inf = none
	depth int     // cardinality of the represented set ('*' counts as one vertex)

	// Embedded inverted-list linkage (per label vertex).
	invPrev, invNext *Node

	// iteration is the exploration-iteration annotation of Section 3.2.2,
	// valid only while epoch matches the index's current update epoch.
	iteration int
	epoch     uint64
}

// Dense reports whether the node currently represents a dense subgraph.
func (n *Node) Dense() bool { return n.dense }

// IsStar reports whether this is an ImplicitTooDense '*' node.
func (n *Node) IsStar() bool { return n.star }

// Score returns the stored internal edge-weight sum of the represented
// subgraph. For star nodes this is the score of the base subgraph (adding a
// disconnected vertex does not change the score).
func (n *Node) Score() float64 { return n.score }

// Card returns the cardinality of the represented vertex set. For star nodes
// it is |base|+1.
func (n *Node) Card() int { return n.depth }

// Parent returns the parent node (nil for the root).
func (n *Node) Parent() *Node { return n.parent }

// Reach returns the node's exploration certificate (see the package comment):
// the most weight a vertex with no indexed child puts into the node's set.
func (n *Node) Reach() float64 { return n.reach }

// SetReach stores the certificate a neighbourhood scan of the node just derived.
func (n *Node) SetReach(r float64) { n.reach = r }

// RaiseReach widens the certificate to cover a vertex putting weight add into
// the node's set; a node without a certificate stays without.
func (n *Node) RaiseReach(add float64) { n.reach = max(n.reach, add) }

// DropReach forgets the certificate.
func (n *Node) DropReach() { n.reach = math.Inf(1) }

// nodeVec is a set of nodes keyed by label, stored as two parallel vectors in
// strictly increasing label order — the shape of graph.adjacency, searched
// with the same vset.Search. A node's children are one.
type nodeVec struct {
	labels []Vertex
	nodes  []*Node
}

// find returns the position of label v and whether it is present; an absent
// label reports its insertion point.
func (l *nodeVec) find(v Vertex) (int, bool) {
	i := vset.Search(l.labels, v)
	return i, i < len(l.labels) && l.labels[i] == v
}

// get returns the node labelled v, or nil.
func (l *nodeVec) get(v Vertex) *Node {
	if i, ok := l.find(v); ok {
		return l.nodes[i]
	}
	return nil
}

// star returns the node labelled Star, or nil. Star compares above every
// real vertex, so it can only be the last entry: an O(1) peek.
func (l *nodeVec) star() *Node {
	if k := len(l.labels); k > 0 && l.labels[k-1] == Star {
		return l.nodes[k-1]
	}
	return nil
}

func (l *nodeVec) insert(i int, v Vertex, n *Node) {
	l.labels = slices.Insert(l.labels, i, v)
	l.nodes = slices.Insert(l.nodes, i, n)
}

func (l *nodeVec) remove(i int) {
	l.labels = slices.Delete(l.labels, i, i+1)
	l.nodes = slices.Delete(l.nodes, i, i+1)
}

// validate checks the vector invariants: equal lengths, strictly increasing
// labels (which puts Star, if present, last), each node under its own label.
func (l *nodeVec) validate() string {
	if len(l.labels) != len(l.nodes) {
		return "label and node vectors differ in length"
	}
	for i, n := range l.nodes {
		if n.label != l.labels[i] {
			return "node label mismatch"
		}
		if i > 0 && l.labels[i-1] >= l.labels[i] {
			return "labels not strictly increasing"
		}
	}
	return ""
}

// Set reconstructs the represented vertex set by walking parent pointers.
// For star nodes the Star vertex is omitted: the result is the base set.
func (n *Node) Set() vset.Set { return n.SetInto(nil) }

// SetInto reconstructs the represented vertex set into buf, reusing its
// capacity (the engine's update loop reconstructs one affected set after
// another into the same scratch buffer). The result aliases buf's backing
// array unless it had to grow; callers that retain it past the next SetInto
// must clone it.
func (n *Node) SetInto(buf []vset.Vertex) vset.Set {
	depth := n.depth
	if n.star {
		depth--
	}
	if cap(buf) < depth {
		buf = make([]vset.Vertex, depth)
	}
	out := buf[:depth]
	i := depth - 1
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		if cur.star {
			continue
		}
		out[i] = cur.label
		i--
	}
	return vset.Set(out)
}

// Index is the dense-subgraph index. The zero value is not usable; call New.
// It is not safe for concurrent use.
type Index struct {
	root   *Node
	labels vset.Table[slot] // per real label: list head and root child
	stars  *Node            // head of Star's inverted list: every '*' node
	epoch  uint64

	belowBuf []Vertex // DropParentReach's path scratch

	denseCount int
	starCount  int
	nodeCount  int

	// membership, when installed, observes label-presence transitions: it is
	// called with (v, true) when v gains its first prefix-tree node and with
	// (v, false) when it loses its last. Star transitions are reported like
	// any other label, so membership of Star doubles as "the index holds at
	// least one ImplicitTooDense family". Sharded deployments use this to
	// maintain per-worker interest maps incrementally (scoped delivery).
	membership func(v Vertex, present bool)
}

// slot is the index's entry for one real label: the head of the label's
// inverted list and the root's child with that label, nil while no indexed
// set starts with it. A label has a slot exactly while a node carries it.
type slot struct {
	head, root *Node
}

// New returns an empty index.
func New() *Index {
	return &Index{root: &Node{}}
}

// SetMembershipListener installs fn as the label-presence observer (see the
// membership field). Passing nil uninstalls it. The listener is invoked
// synchronously during index mutation and must not call back into the index.
// Installing a listener on a non-empty index is allowed; the caller is then
// responsible for seeding its state from Vertices().
func (ix *Index) SetMembershipListener(fn func(v Vertex, present bool)) {
	ix.membership = fn
}

// HasVertex reports whether at least one prefix-tree node is labelled v —
// equivalently, whether v belongs to at least one indexed (dense or star)
// subgraph or a prefix path leading to one. It is the interest oracle
// behind scoped delivery: an update endpoint absent from the index (and from
// every star family) provably cannot affect any indexed subgraph.
func (ix *Index) HasVertex(v Vertex) bool {
	if v == Star {
		return ix.stars != nil
	}
	return ix.labels.Get(v).head != nil
}

// Vertices returns the sorted labels that currently have at least one
// prefix-tree node (including Star, last, when any ImplicitTooDense family
// exists). It is intended for interest-map seeding and invariant checks, not
// hot paths.
func (ix *Index) Vertices() []Vertex {
	var vs []Vertex
	for v := range ix.labels.All() {
		vs = append(vs, v)
	}
	if ix.stars != nil {
		vs = append(vs, Star)
	}
	return vs
}

// Len returns the number of explicitly indexed dense subgraphs.
func (ix *Index) Len() int { return ix.denseCount }

// StarCount returns the number of ImplicitTooDense families currently stored.
func (ix *Index) StarCount() int { return ix.starCount }

// NodeCount returns the total number of prefix-tree nodes (a memory proxy).
func (ix *Index) NodeCount() int { return ix.nodeCount }

// BeginUpdate starts a new update epoch, invalidating all exploration
// iteration annotations from the previous update (Section 3.2.2).
func (ix *Index) BeginUpdate() { ix.epoch++ }

// Annotate records that node n was identified at exploration iteration it
// during the current update.
func (ix *Index) Annotate(n *Node, it int) {
	n.iteration = it
	n.epoch = ix.epoch
}

// Annotation returns the exploration iteration at which n was identified
// during the current update, and whether such an annotation exists.
func (ix *Index) Annotation(n *Node) (int, bool) {
	if n.epoch == ix.epoch && ix.epoch != 0 {
		return n.iteration, true
	}
	return 0, false
}

// Lookup returns the node representing c, or nil if no such node exists
// (dense or not).
func (ix *Index) Lookup(c vset.Set) *Node {
	if len(c) == 0 {
		return nil
	}
	cur := ix.labels.Get(c[0]).root
	for _, v := range c[1:] {
		if cur == nil {
			return nil
		}
		cur = cur.kids.get(v)
	}
	return cur
}

// child returns p's child labelled v, or nil. The root's is read from v's
// slot rather than searched for in the root's wide vector.
func (ix *Index) child(p *Node, v Vertex) *Node {
	if p == ix.root {
		return ix.labels.Get(v).root
	}
	return p.kids.get(v)
}

// LookupDense returns the node for c if c is explicitly indexed as dense.
func (ix *Index) LookupDense(c vset.Set) *Node {
	n := ix.Lookup(c)
	if n == nil || !n.dense {
		return nil
	}
	return n
}

// HasDense reports whether c is explicitly indexed as dense.
func (ix *Index) HasDense(c vset.Set) bool { return ix.LookupDense(c) != nil }

// ensure creates (if necessary) and returns the node for c.
func (ix *Index) ensure(c vset.Set) *Node {
	cur := ix.root
	for _, v := range c {
		next := ix.child(cur, v)
		if next == nil {
			next = ix.newChild(cur, v)
		}
		cur = next
	}
	return cur
}

func (ix *Index) newChild(parent *Node, label Vertex) *Node {
	n := &Node{label: label, parent: parent, depth: parent.depth + 1, reach: math.Inf(1)}
	i, _ := parent.kids.find(label)
	parent.kids.insert(i, label, n)
	ix.nodeCount++
	// Link at the head of label's inverted list.
	var head *Node
	if label == Star {
		head, ix.stars = ix.stars, n
	} else {
		s := ix.labels.Get(label)
		head, s.head = s.head, n
		if parent == ix.root {
			s.root = n
		}
		ix.labels.Set(label, s)
	}
	if head != nil {
		n.invNext, head.invPrev = head, n
	} else if ix.membership != nil {
		ix.membership(label, true)
	}
	return n
}

// unlink takes n, still attached to its parent, out of its inverted list and,
// for a root child, out of its label's slot.
func (ix *Index) unlink(n *Node) {
	if n.invPrev != nil {
		n.invPrev.invNext = n.invNext
	}
	if n.invNext != nil {
		n.invNext.invPrev = n.invPrev
	}
	if n.invPrev == nil || n.parent == ix.root {
		var head *Node
		if n.label == Star {
			ix.stars = n.invNext
			head = ix.stars
		} else {
			s := ix.labels.Get(n.label)
			if s.head == n {
				s.head = n.invNext
			}
			if s.root == n {
				s.root = nil
			}
			ix.labels.Set(n.label, s) // the zero slot, once no node is left, deletes it
			head = s.head
		}
		if head == nil && ix.membership != nil {
			ix.membership(n.label, false)
		}
	}
	n.invPrev, n.invNext = nil, nil
}

// InsertDense marks c as a dense subgraph with the given score, creating
// prefix-tree nodes as needed, and returns its node. If c is already dense
// only its score is updated.
func (ix *Index) InsertDense(c vset.Set, score float64) *Node {
	n := ix.ensure(c)
	if !n.dense {
		n.dense = true
		n.reach = math.Inf(1)
		ix.denseCount++
	}
	n.score = score
	return n
}

// SetScore overwrites the stored score of a dense or star node.
func (ix *Index) SetScore(n *Node, score float64) { n.score = score }

// AddScore adds delta to the stored score of a dense or star node and returns
// the new value.
func (ix *Index) AddScore(n *Node, delta float64) float64 {
	n.score += delta
	return n.score
}

// EvictDense removes the dense marking from node n and prunes any resulting
// chain of childless, non-dense nodes (typically O(1), at worst O(|C|)).
// Any '*' child of n is removed as well: the implicit family exists only
// while its base is indexed.
func (ix *Index) EvictDense(n *Node) {
	if n == nil || !n.dense {
		return
	}
	if star := n.kids.star(); star != nil {
		ix.removeStarNode(star)
	}
	n.dense = false
	n.reach = math.Inf(1)
	ix.denseCount--
	ix.prune(n)
}

// DropParentReach forgets the certificate of every parent D∖{v} of n's set D
// that has a node; the engine calls it before evicting n, which turns D into
// a child the parents' reach must cover. The parents share D's path: dropping
// the last vertex gives the tree parent, dropping the label of another path
// node gives that node's parent followed by the labels below the node — a
// descent of as many steps as there are such labels, not one from the root.
func (ix *Index) DropParentReach(n *Node) {
	below := ix.belowBuf[:0] // labels of the path nodes under cur, deepest first
	for cur := n; cur.parent != nil; cur = cur.parent {
		p := cur.parent
		for i := len(below) - 1; i >= 0 && p != nil; i-- {
			p = ix.child(p, below[i])
		}
		if p != nil {
			p.reach = math.Inf(1)
		}
		below = append(below, cur.label)
	}
	ix.belowBuf = below
}

func (ix *Index) prune(n *Node) {
	for n != nil && n != ix.root && !n.dense && !n.star && len(n.kids.nodes) == 0 {
		parent := n.parent
		i, _ := parent.kids.find(n.label)
		parent.kids.remove(i)
		ix.unlink(n)
		ix.nodeCount--
		n.parent = nil
		n = parent
	}
}

// InsertStar records the ImplicitTooDense family for the dense node base:
// every supergraph base ∪ {y} with y disconnected from base. It returns the
// star node. Inserting twice is a no-op.
func (ix *Index) InsertStar(base *Node) *Node {
	if base == nil || !base.dense {
		return nil
	}
	if existing := base.kids.star(); existing != nil {
		existing.score = base.score
		return existing
	}
	n := ix.newChild(base, Star)
	n.star = true
	n.score = base.score
	ix.starCount++
	return n
}

// RemoveStar removes the ImplicitTooDense family of base, if present.
func (ix *Index) RemoveStar(base *Node) {
	if base == nil {
		return
	}
	if star := base.kids.star(); star != nil {
		ix.removeStarNode(star)
	}
}

func (ix *Index) removeStarNode(n *Node) {
	n.star = false
	ix.starCount--
	ix.prune(n)
}

// HasStar reports whether base has an ImplicitTooDense family.
func (ix *Index) HasStar(base *Node) bool {
	return base != nil && base.kids.star() != nil
}

// StarOf returns the star node of base, or nil.
func (ix *Index) StarOf(base *Node) *Node {
	if base == nil {
		return nil
	}
	return base.kids.star()
}

// AppendDense appends a snapshot of every explicitly indexed dense node to
// dst (reusing its capacity) and returns the extended slice, each node exactly
// once, in lexicographic order of the vertex sets. It is the one whole-index
// traversal — the snapshot a batched update or a threshold walk takes once
// instead of once per touched vertex — and, like AppendDenseContaining,
// performs no allocations beyond dst growth; the snapshot stays safe to walk
// while the index is mutated (check Dense() on each node).
func (ix *Index) AppendDense(dst []*Node) []*Node {
	return appendDenseSubtree(dst, ix.root)
}

// appendDenseSubtree appends every dense node strictly below n to dst,
// skipping star children. Children are visited in label order, so the subtree
// comes out in lexicographic order. It is a plain recursion — no closures — so
// snapshot collection into a reused buffer performs no allocations beyond dst
// growth.
func appendDenseSubtree(dst []*Node, n *Node) []*Node {
	for _, child := range n.kids.nodes {
		if !child.star {
			dst = appendDenseSubtree(appendIfDense(dst, child), child)
		}
	}
	return dst
}

func appendIfDense(dst []*Node, n *Node) []*Node {
	if n.dense {
		dst = append(dst, n)
	}
	return dst
}

// AppendDenseContaining appends a snapshot of every explicitly indexed dense
// subgraph that contains vertex u to dst (reusing its capacity) and returns
// the extended slice, each node exactly once. It traverses the subtrees
// rooted at the nodes on u's inverted list; since a set containing u has
// exactly one ancestor-or-self node labelled u, no set is visited twice. The
// list is visited newest node first and each subtree lexicographically, so
// the order is a function of the index's history alone.
func (ix *Index) AppendDenseContaining(dst []*Node, u Vertex) []*Node {
	for head := ix.labels.Get(u).head; head != nil; head = head.invNext {
		if !head.star {
			dst = appendDenseSubtree(appendIfDense(dst, head), head)
		}
	}
	return dst
}

// AppendDenseContainingBoth appends a snapshot of every explicitly indexed
// dense subgraph containing both a and b (a ≠ b) to dst and returns the
// extended slice: the subsequence of AppendDenseContaining(a) whose sets hold
// b, in the same order, without visiting the rest (see the package comment).
// This is the iteration Algorithm 1 performs for a negative edge-weight update.
func (ix *Index) AppendDenseContainingBoth(dst []*Node, a, b Vertex) []*Node {
	for head := ix.labels.Get(a).head; head != nil; head = head.invNext {
		if b > a {
			dst = appendDenseThrough(dst, head, b)
		} else if pathHolds(head, b) {
			dst = appendDenseSubtree(appendIfDense(dst, head), head)
		}
	}
	return dst
}

// appendDenseThrough appends the dense nodes below n whose path passes a node
// labelled v; every label from the walk's inverted-list node down to n is
// below v.
func appendDenseThrough(dst []*Node, n *Node, v Vertex) []*Node {
	i, ok := n.kids.find(v)
	for _, child := range n.kids.nodes[:i] {
		dst = appendDenseThrough(dst, child, v)
	}
	if ok {
		child := n.kids.nodes[i]
		dst = appendDenseSubtree(appendIfDense(dst, child), child)
	}
	return dst
}

// pathHolds reports whether a node above n is labelled v.
func pathHolds(n *Node, v Vertex) bool {
	for n = n.parent; n.parent != nil; n = n.parent {
		if n.label <= v {
			return n.label == v
		}
	}
	return false
}

// AppendDensePaired appends a snapshot of every explicitly indexed dense
// subgraph containing a or b (a ≠ b) to nodes, each exactly once, and its
// partner (see the package comment) to partners; split tells the sets holding
// max(a, b), nodes[:split], from those holding min(a, b) only. This is the
// iteration Algorithm 1 performs for a positive edge-weight update, in the
// order of Section 3.2.2: the subtrees on the larger endpoint's inverted list,
// then those on the smaller's with descent cut at children labelled with the
// larger, which were already collected. The engine reuses both slices across
// updates, making the snapshot allocation-free in steady state.
func (ix *Index) AppendDensePaired(nodes, partners []*Node, a, b Vertex) (_, _ []*Node, split int) {
	w := pairWalk{nodes: nodes, partners: partners, lo: min(a, b), hi: max(a, b)}
	lo := ix.labels.Get(w.lo)
	w.rootLo = lo.root
	for head := ix.labels.Get(w.hi).head; head != nil; head = head.invNext {
		if pathHolds(head, w.lo) {
			// Every set at and below head holds both endpoints: its own partner.
			w.nodes = appendDenseSubtree(appendIfDense(w.nodes, head), head)
			w.partners = append(w.partners, w.nodes[len(w.partners):]...)
		} else {
			w.above(head, w.withLo(head))
		}
	}
	split = len(w.nodes)
	for head := lo.head; head != nil; head = head.invNext {
		w.below(head)
	}
	return w.nodes, w.partners, split
}

// pairWalk is the state of one AppendDensePaired traversal.
type pairWalk struct {
	nodes, partners []*Node
	lo, hi          Vertex
	rootLo          *Node // the root's child labelled lo, from lo's slot
}

// withLo returns the node of n's set extended by lo, or nil, for an n whose
// path holds hi and not lo: up to the ancestor where the labels drop below lo,
// a step to lo, and the labels passed again — each a search among a few
// siblings, not a search of the wide root.
func (w *pairWalk) withLo(n *Node) *Node {
	p := n.parent
	switch {
	case p.parent == nil:
		p = w.rootLo
	case p.label < w.lo:
		p = p.kids.get(w.lo)
	default:
		p = w.withLo(p)
	}
	if p == nil {
		return nil
	}
	return p.kids.get(n.label)
}

func (w *pairWalk) add(n, partner *Node) {
	if n.dense {
		w.nodes = append(w.nodes, n)
		w.partners = append(w.partners, partner)
	}
}

// above walks the subtree of n, whose partner is p (nil if it has no node) and
// whose labels under n all exceed the missing endpoint.
func (w *pairWalk) above(n, p *Node) {
	w.add(n, p)
	w.merge(&n.kids, 0, p)
}

// merge walks kids[from:], the partner of each child being p's child of the
// same label: one pass over the two sorted child vectors.
func (w *pairWalk) merge(kids *nodeVec, from int, p *Node) {
	j := 0
	for i := from; i < len(kids.nodes) && !kids.nodes[i].star; i++ {
		var pc *Node
		if p != nil {
			for j < len(p.kids.labels) && p.kids.labels[j] < kids.labels[i] {
				j++
			}
			if j < len(p.kids.labels) && p.kids.labels[j] == kids.labels[i] {
				pc = p.kids.nodes[j]
			}
		}
		w.above(kids.nodes[i], pc)
	}
}

// below walks the subtree of n, at or under a node labelled lo with every
// label since below hi: its partner is its child labelled hi, which the walk
// skips; children above hi continue under the partner's.
func (w *pairWalk) below(n *Node) {
	i, ok := n.kids.find(w.hi)
	var p *Node
	if ok {
		p = n.kids.nodes[i]
	}
	w.add(n, p)
	for _, child := range n.kids.nodes[:i] {
		w.below(child)
	}
	if ok {
		i++
	}
	w.merge(&n.kids, i, p)
}

// AppendStarNodes appends a snapshot of all ImplicitTooDense star nodes to
// dst and returns the extended slice.
func (ix *Index) AppendStarNodes(dst []*Node) []*Node {
	for n := ix.stars; n != nil; n = n.invNext {
		dst = append(dst, n)
	}
	return dst
}

// Validate checks internal invariants (counts, linkage, depth bookkeeping).
// It is exported for tests; it returns the first violation found as a string,
// or "" if the index is consistent.
func (ix *Index) Validate() string {
	dense, stars, nodes := 0, 0, 0
	var walk func(n *Node, depth int) string
	walk = func(n *Node, depth int) string {
		if msg := n.kids.validate(); msg != "" {
			return "children: " + msg
		}
		for _, child := range n.kids.nodes {
			nodes++
			if child.star != (child.label == Star) {
				return "star flag and Star label disagree"
			}
			if child.parent != n {
				return "parent pointer mismatch"
			}
			if child.depth != depth+1 {
				return "depth mismatch"
			}
			if child.dense {
				dense++
			}
			if child.star {
				stars++
				if len(child.kids.nodes) != 0 {
					return "star node has children"
				}
			}
			if !child.dense && !child.star && len(child.kids.nodes) == 0 {
				return "dangling childless node " + child.Set().String()
			}
			if !child.dense && !math.IsInf(child.reach, 1) {
				return "node that is not dense holds a reach certificate: " + child.Set().String()
			}
			if msg := walk(child, depth+1); msg != "" {
				return msg
			}
		}
		return ""
	}
	if msg := walk(ix.root, 0); msg != "" {
		return msg
	}
	if dense != ix.denseCount {
		return "dense count mismatch"
	}
	if stars != ix.starCount {
		return "star count mismatch"
	}
	if nodes != ix.nodeCount {
		return "node count mismatch"
	}
	// Inverted lists must contain exactly the nodes with each label, and a
	// label's slot must hold its list's head and the root's child with it.
	listed := 0
	list := func(head *Node, label Vertex) string {
		if head == nil {
			return "slot without a node for label " + vset.New(label).String()
		}
		if head.invPrev != nil {
			return "inverted list head has a predecessor"
		}
		for n := head; n != nil; n = n.invNext {
			listed++
			if n.label != label {
				return "inverted list label mismatch"
			}
			if n.invNext != nil && n.invNext.invPrev != n {
				return "inverted list back-pointer mismatch"
			}
		}
		return ""
	}
	for v, s := range ix.labels.All() {
		if msg := list(s.head, v); msg != "" {
			return msg
		}
		if s.root != ix.root.kids.get(v) {
			return "slot's root child disagrees with the root's children for label " + vset.New(v).String()
		}
	}
	if ix.stars != nil {
		if msg := list(ix.stars, Star); msg != "" {
			return msg
		}
	}
	for _, kid := range ix.root.kids.nodes {
		if ix.labels.Get(kid.label).root != kid {
			return "root child without its slot: " + kid.Set().String()
		}
	}
	if listed != nodes {
		return "inverted list node count mismatch"
	}
	return ""
}
