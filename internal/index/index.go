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
// inserted explicitly. A positive update acts only on the families whose base
// has at most Nmax−2 vertices (core.Engine.processStar), and for those, the
// tracked families, the index keeps what lets it skip the rest: per-vertex
// postings (the families whose base holds the vertex, in a vertex table), a
// per-family seq that reproduces the order of the '*' inverted list (newest
// first, so decreasing seq), and per base cardinality a count and an upper
// bound on the family scores. Every score write raises the bound, Ldexp
// scales it, and a full walk of the '*' list (AppendStarNodes) makes it exact
// again. Emptied postings are kept for reuse on a free list of at most
// postFreeLimit entries.
//
// Nodes are recycled too, so a set that comes and goes in steady state — an
// ordinary dense set or a family — allocates nothing. A pruned node is parked
// on the pass's removed list and handed out again, with the capacity of its
// child vectors, only after the next BeginUpdate moves it to the free list;
// the two lists together hold at most nodeFreeLimit nodes. An engine snapshot
// taken in a pass may thus hold a node the pass pruned — it reads it as not
// dense — but never one given out again as another set: a snapshot must not
// outlive its pass.
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
	"cmp"
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
// recycled: a node must not be retained past the pass (BeginUpdate to
// BeginUpdate) it was read in.
type Node struct {
	label  Vertex
	depth  int32 // cardinality of the represented set ('*' counts as one vertex)
	parent *Node
	kids   nodeVec // children by label; empty (and unallocated) for a leaf

	dense bool
	star  bool // this node is a '*' child: it represents parent.Set() ∪ {y} for disconnected y
	// iteration is the exploration-iteration annotation of Section 3.2.2,
	// valid only while epoch matches the index's current update epoch.
	iteration int32
	score     float64
	reach     float64 // exploration certificate (see the package comment); +Inf = none

	// Embedded inverted-list linkage (per label vertex).
	invPrev, invNext *Node

	epoch uint64
	seq   uint64 // a '*' node's insertion sequence: the '*' list is in decreasing seq
}

// Dense reports whether the node currently represents a dense subgraph.
func (n *Node) Dense() bool { return n.dense }

// Score returns the stored internal edge-weight sum of the represented
// subgraph. For star nodes this is the score of the base subgraph (adding a
// disconnected vertex does not change the score).
func (n *Node) Score() float64 { return n.score }

// Card returns the cardinality of the represented vertex set. For star nodes
// it is |base|+1.
func (n *Node) Card() int { return int(n.depth) }

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
	depth := int(n.depth)
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

	// The tracked ImplicitTooDense families (see the package comment): those
	// whose base has at most nmax−2 vertices.
	nmax     int
	famSeq   uint64               // seq of the newest family
	posts    vset.Table[*posting] // per vertex: the tracked families whose base holds it
	famCount []int                // [k]: tracked families with a base of k vertices
	famBound []float64            // [k]: an upper bound on their scores, -Inf while there are none
	famTotal int                  // Σ famCount
	postFree []*posting           // emptied postings, for reuse

	removed []*Node // nodes pruned during this pass: free from the next one
	free    []*Node // nodes pruned in earlier passes, for reuse

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

// posting is one vertex's tracked families, in increasing seq.
type posting struct{ fams []*Node }

// postFreeLimit bounds postFree; nodeFreeLimit bounds removed and free
// together.
const (
	postFreeLimit = 64
	nodeFreeLimit = 256
)

// New returns an empty index for sets of at most nmax vertices.
func New(nmax int) *Index {
	ix := &Index{
		root:     &Node{},
		nmax:     nmax,
		famCount: make([]int, max(nmax-1, 0)),
		famBound: make([]float64, max(nmax-1, 0)),
	}
	for k := range ix.famBound {
		ix.famBound[k] = math.Inf(-1)
	}
	return ix
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

// Len returns the number of explicitly indexed dense subgraphs.
func (ix *Index) Len() int { return ix.denseCount }

// StarCount returns the number of ImplicitTooDense families currently stored.
func (ix *Index) StarCount() int { return ix.starCount }

// NodeCount returns the total number of prefix-tree nodes (a memory proxy).
func (ix *Index) NodeCount() int { return ix.nodeCount }

// BeginUpdate starts a new update epoch, invalidating all exploration
// iteration annotations from the previous update (Section 3.2.2), and frees
// the nodes the previous passes pruned for reuse.
func (ix *Index) BeginUpdate() {
	ix.epoch++
	ix.free = append(ix.free, ix.removed...)
	clear(ix.removed)
	ix.removed = ix.removed[:0]
}

// Annotate records that node n was identified at exploration iteration it
// during the current update.
func (ix *Index) Annotate(n *Node, it int) {
	n.iteration = int32(it)
	n.epoch = ix.epoch
}

// Annotation returns the exploration iteration at which n was identified
// during the current update, and whether such an annotation exists.
func (ix *Index) Annotation(n *Node) (int, bool) {
	if n.epoch == ix.epoch && ix.epoch != 0 {
		return int(n.iteration), true
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
	var n *Node
	var kids nodeVec
	if k := len(ix.free); k > 0 {
		n = ix.free[k-1]
		ix.free[k-1] = nil
		ix.free = ix.free[:k-1]
		kids = nodeVec{n.kids.labels[:0], n.kids.nodes[:0]}
	} else {
		n = new(Node)
	}
	*n = Node{label: label, parent: parent, depth: parent.depth + 1, kids: kids, reach: math.Inf(1)}
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
func (ix *Index) SetScore(n *Node, score float64) {
	n.score = score
	ix.raiseBound(n)
}

// AddScore adds delta to the stored score of a dense or star node and returns
// the new value.
func (ix *Index) AddScore(n *Node, delta float64) float64 {
	n.score += delta
	ix.raiseBound(n)
	return n.score
}

// tracked reports whether a family with a base of k vertices is tracked.
func (ix *Index) tracked(k int) bool { return k <= ix.nmax-2 }

// raiseBound widens the score bound of n's cardinality to n's score if n is
// a tracked family.
func (ix *Index) raiseBound(n *Node) {
	if k := int(n.depth) - 1; n.star && ix.tracked(k) {
		ix.famBound[k] = max(ix.famBound[k], n.score)
	}
}

// Ldexp multiplies every stored score, family score bound and reach
// certificate by 2^k, the relabel that goes with graph.Graph.Ldexp (+Inf
// stays +Inf). Ldexp is monotone, so a bound stays a bound.
func (ix *Index) Ldexp(k int) {
	ldexpSubtree(ix.root, k)
	for i, b := range ix.famBound {
		ix.famBound[i] = math.Ldexp(b, k)
	}
}

func ldexpSubtree(n *Node, k int) {
	for _, child := range n.kids.nodes {
		child.score = math.Ldexp(child.score, k)
		child.reach = math.Ldexp(child.reach, k)
		ldexpSubtree(child, k)
	}
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
		if len(ix.removed)+len(ix.free) < nodeFreeLimit {
			ix.removed = append(ix.removed, n)
		}
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
		ix.SetScore(existing, base.score)
		return existing
	}
	n := ix.newChild(base, Star)
	n.star = true
	ix.famSeq++
	n.seq = ix.famSeq
	ix.starCount++
	if k := int(base.depth); ix.tracked(k) {
		ix.famCount[k]++
		ix.famTotal++
		for cur := base; cur != ix.root; cur = cur.parent {
			ix.post(cur.label, n)
		}
	}
	ix.SetScore(n, base.score)
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
	if k := int(n.depth) - 1; ix.tracked(k) {
		ix.famCount[k]--
		ix.famTotal--
		if ix.famCount[k] == 0 {
			ix.famBound[k] = math.Inf(-1)
		}
		for cur := n.parent; cur != ix.root; cur = cur.parent {
			ix.unpost(cur.label, n)
		}
	}
	n.star = false
	ix.starCount--
	ix.prune(n)
}

// post appends the family fam, the newest, to v's posting.
func (ix *Index) post(v Vertex, fam *Node) {
	p := ix.posts.Get(v)
	if p == nil {
		if k := len(ix.postFree); k > 0 {
			p = ix.postFree[k-1]
			ix.postFree[k-1] = nil
			ix.postFree = ix.postFree[:k-1]
		} else {
			p = new(posting)
		}
		ix.posts.Set(v, p)
	}
	p.fams = append(p.fams, fam)
}

// unpost removes the family fam from v's posting, and the posting from v if
// it empties.
func (ix *Index) unpost(v Vertex, fam *Node) {
	p := ix.posts.Get(v)
	i, _ := slices.BinarySearchFunc(p.fams, fam.seq, func(f *Node, seq uint64) int { return cmp.Compare(f.seq, seq) })
	p.fams = slices.Delete(p.fams, i, i+1)
	if len(p.fams) == 0 {
		ix.posts.Set(v, nil)
		if len(ix.postFree) < postFreeLimit {
			ix.postFree = append(ix.postFree, p)
		}
	}
}

// TrackedFamilies returns the number of tracked families: those whose base
// has at most nmax−2 vertices.
func (ix *Index) TrackedFamilies() int { return ix.famTotal }

// Families returns the number of tracked families whose base has k vertices
// and an upper bound on their scores (-Inf if there are none).
func (ix *Index) Families(k int) (count int, bound float64) {
	if !ix.tracked(k) {
		return 0, math.Inf(-1)
	}
	return ix.famCount[k], ix.famBound[k]
}

// FamiliesOf returns the tracked families whose base holds v, oldest first.
// The slice is the index's own storage: read-only, and valid until the next
// family is inserted or removed.
func (ix *Index) FamiliesOf(v Vertex) []*Node {
	if p := ix.posts.Get(v); p != nil {
		return p.fams
	}
	return nil
}

// InStarOrder sorts star nodes into the order of the '*' inverted list, the
// newest family first, drops duplicates, and returns the shortened slice.
func InStarOrder(fams []*Node) []*Node {
	slices.SortFunc(fams, func(x, y *Node) int { return cmp.Compare(y.seq, x.seq) })
	return slices.Compact(fams)
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

// AppendDensePaired appends a snapshot of the explicitly indexed dense
// subgraphs containing a or b (a ≠ b) to nodes, each at most once, and its
// partner (see the package comment) to partners; split tells the sets holding
// max(a, b), nodes[:split], from those holding min(a, b) only. This is the
// iteration Algorithm 1 performs for a positive edge-weight update, in the
// order of Section 3.2.2: the subtrees on the larger endpoint's inverted list,
// then those on the smaller's with descent cut at children labelled with the
// larger, which were already collected. The engine reuses both slices across
// updates, making the snapshot allocation-free in steady state.
//
// A set holding one endpoint is left out where its cheap-exploration would
// end in O(1) (core.Engine.cheapExplore): if it has nmax vertices, so the
// union is too large, or if its partner is dense, so the union is indexed —
// for good, as a positive pass never evicts. indexed counts the latter.
func (ix *Index) AppendDensePaired(nodes, partners []*Node, a, b Vertex) (_, _ []*Node, split, indexed int) {
	w := pairWalk{nodes: nodes, partners: partners, lo: min(a, b), hi: max(a, b), nmax: int32(ix.nmax)}
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
	return w.nodes, w.partners, split, w.indexed
}

// pairWalk is the state of one AppendDensePaired traversal.
type pairWalk struct {
	nodes, partners []*Node
	lo, hi          Vertex
	rootLo          *Node // the root's child labelled lo, from lo's slot
	nmax            int32
	indexed         int // sets left out because their partner is dense
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

// add takes n, a set holding one endpoint whose partner is partner, into the
// snapshot unless it is not dense or its cheap-exploration ends in O(1).
func (w *pairWalk) add(n, partner *Node) {
	switch {
	case !n.dense || n.depth >= w.nmax:
	case partner != nil && partner.dense:
		w.indexed++
	default:
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
// dst, in '*'-list order, and returns the extended slice. The walk reads
// every family's score, so it also makes the score bounds exact again.
func (ix *Index) AppendStarNodes(dst []*Node) []*Node {
	for k := range ix.famBound {
		ix.famBound[k] = math.Inf(-1)
	}
	for n := ix.stars; n != nil; n = n.invNext {
		dst = append(dst, n)
		ix.raiseBound(n)
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
			if int(child.depth) != depth+1 {
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
	if msg := ix.validateRecycled(); msg != "" {
		return msg
	}
	return ix.validateFamilies()
}

// validateRecycled checks the removed and free lists: within their bound, and
// every node on them listed once and detached — no parent, children or list
// links, neither dense nor a family. Every node the walk from the root reaches
// has a parent, so a detached node other than the root is unreachable.
func (ix *Index) validateRecycled() string {
	if len(ix.removed)+len(ix.free) > nodeFreeLimit {
		return "recycled nodes over their bound"
	}
	seen := make(map[*Node]bool, len(ix.removed)+len(ix.free))
	for _, n := range slices.Concat(ix.removed, ix.free) {
		switch {
		case n == ix.root || n.parent != nil || len(n.kids.nodes) != 0 || n.invPrev != nil || n.invNext != nil:
			return "recycled node is still attached"
		case n.dense || n.star:
			return "recycled node is dense or a family"
		case seen[n]:
			return "recycled node listed twice"
		}
		seen[n] = true
	}
	return ""
}

// validateFamilies checks the family bookkeeping: seqs decrease along the '*'
// list, each tracked family is in exactly the postings of its base vertices,
// in increasing seq, and the counts and score bounds hold.
func (ix *Index) validateFamilies() string {
	count := make([]int, len(ix.famCount))
	posted := 0
	for n := ix.stars; n != nil; n = n.invNext {
		if n.invNext != nil && n.invNext.seq >= n.seq {
			return "'*' list not in decreasing seq"
		}
		k := int(n.depth) - 1
		if !ix.tracked(k) {
			continue
		}
		count[k]++
		if !(n.score <= ix.famBound[k]) {
			return "family score above its cardinality's bound: " + n.Set().String()
		}
		for cur := n.parent; cur != ix.root; cur = cur.parent {
			fams := ix.FamiliesOf(cur.label)
			i, ok := slices.BinarySearchFunc(fams, n.seq, func(f *Node, seq uint64) int { return cmp.Compare(f.seq, seq) })
			if !ok || fams[i] != n {
				return "family missing from a base vertex's posting: " + n.Set().String()
			}
			posted++
		}
	}
	if !slices.Equal(count, ix.famCount) {
		return "family count mismatch"
	}
	total := 0
	for _, c := range count {
		total += c
	}
	if total != ix.famTotal {
		return "family total mismatch"
	}
	for _, p := range ix.posts.All() {
		if len(p.fams) == 0 {
			return "empty posting"
		}
		for i, f := range p.fams {
			if i > 0 && p.fams[i-1].seq >= f.seq {
				return "posting not in increasing seq"
			}
			if !f.star {
				return "posting holds a node that is not a family"
			}
			posted--
		}
	}
	if posted != 0 {
		return "postings hold families under vertices outside their base"
	}
	return ""
}
