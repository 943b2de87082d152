// Package core implements DynDens, the incremental algorithm for maintaining
// dense subgraphs under streaming edge-weight updates (the Engagement
// problem) described in Sections 3, 4 and 6 of the paper. It implements none
// of the heuristics of Section 7: the engine is exact.
//
// The engine owns the evolving weighted graph, the dense-subgraph prefix-tree
// index, and the threshold schedule. Each unit it is handed — one edge-weight
// update (Process), a batch of them (ProcessBatch) or a decay epoch that
// moves the threshold (ProcessThresholdBatch) — reports the changes to the
// set of output-dense subgraphs (subgraphs whose density is at least the user
// threshold T and whose cardinality is at most Nmax) to the engine's event
// sink.
package core

import (
	"cmp"
	"fmt"
	"math"

	"dyndens/internal/density"
	"dyndens/internal/graph"
	"dyndens/internal/index"
	"dyndens/internal/vset"
)

// Vertex aliases the graph vertex type.
type Vertex = vset.Vertex

// Update aliases the graph edge-weight update type.
type Update = graph.Update

// Config configures a DynDens engine.
type Config struct {
	// Measure selects the density normalisation S_n. Defaults to AvgWeight.
	Measure density.Measure
	// T is the output-density threshold; must be positive.
	T float64
	// Nmax is the maximum cardinality of subgraphs of interest; must be ≥ 2.
	Nmax int
	// DeltaIt is the δ_it tuning parameter (space/time trade-off). If zero,
	// DeltaItFraction is used instead.
	DeltaIt float64
	// DeltaItFraction sets δ_it as a fraction of its maximum valid value
	// (Section 4.1.3). Used only when DeltaIt is zero; defaults to 0.01,
	// matching the paper's main experiments.
	DeltaItFraction float64

	// EnableMaxExplore is accepted and ignored: the engine always runs the
	// exact algorithm. The paper's MaxExplore caps (Section 7.1) are not
	// implemented, because they skip dense subgraphs that only an
	// ImplicitTooDense family represents. The field stays only because the
	// benchmark harness sets it (ROADMAP item 6).
	EnableMaxExplore bool
}

// WithDefaults returns the configuration with default values applied (the
// configuration an engine built from c would report via Engine.Config), for
// callers that hold a Config rather than an Engine.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Measure == nil {
		c.Measure = density.AvgWeight
	}
	if c.DeltaIt == 0 {
		frac := c.DeltaItFraction
		if frac <= 0 || frac >= 1 {
			frac = 0.01
		}
		c.DeltaIt = frac * density.MaxDeltaIt(c.Measure, c.T, c.Nmax)
	}
	return c
}

// EventKind describes how the output-dense set changed.
type EventKind uint8

const (
	// BecameOutputDense reports a subgraph whose density crossed T upward.
	BecameOutputDense EventKind = iota + 1
	// CeasedOutputDense reports a subgraph whose density dropped below T.
	CeasedOutputDense
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case BecameOutputDense:
		return "became-output-dense"
	case CeasedOutputDense:
		return "ceased-output-dense"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is a change to the output-dense subgraph set caused by one update.
type Event struct {
	Kind    EventKind
	Set     vset.Set
	Score   float64
	Density float64
}

// CompareEvents is the canonical order of one tick's events: became before
// ceased, then by subgraph identity (vset.CompareKeys). A batch flush emits in
// it, and the story tracker, which regroups events, sorts by it, so its
// output is a function of the tick's event set alone.
func CompareEvents(a, b Event) int {
	if a.Kind != b.Kind {
		return cmp.Compare(a.Kind, b.Kind)
	}
	return vset.CompareKeys(a.Set, b.Set)
}

// Subgraph is a snapshot of one maintained subgraph.
type Subgraph struct {
	Set     vset.Set
	Density float64
}

// Stats aggregates work counters across the lifetime of the engine. All
// counters are monotonically increasing except the index gauges.
type Stats struct {
	Updates          uint64 // updates processed (batched updates count individually)
	Batches          uint64 // batch units, plain and threshold (one logical tick each)
	ThresholdTicks   uint64 // threshold units (rescaled decay epochs), a subset of Batches
	PositiveUpdates  uint64
	NegativeUpdates  uint64
	Explorations     uint64 // explore() invocations that scanned a neighbourhood
	ExploreCertified uint64 // explore() invocations settled by the node's reach certificate instead
	CheapExplores    uint64 // cheap-exploration attempts
	CheapIndexed     uint64 // those that ended because the union was already indexed
	Insertions       uint64 // dense subgraphs inserted into the index
	Evictions        uint64 // dense subgraphs evicted from the index
	// MaxExploreSkips is always 0: the engine implements no MaxExplore caps
	// (see Config.EnableMaxExplore). It stays only because the benchmark
	// harness reads it (ROADMAP item 6).
	MaxExploreSkips uint64
	Events          uint64 // output events emitted

	// Read by the tests only.
	batchPairs     uint64 // coalesced positive pairs that ran the discovery pass
	starInsertions uint64 // ImplicitTooDense families created

	IndexedDense  int // current number of explicitly indexed dense subgraphs
	IndexedStars  int // current number of ImplicitTooDense families
	IndexNodes    int // current prefix-tree node count
	MaxIndexNodes int // high-water mark of IndexNodes
}

// Engine is a DynDens instance. It is not safe for concurrent use; the update
// stream must be processed sequentially (as in the paper).
type Engine struct {
	cfg Config // as configured, defaults applied; never written after New
	th  *density.Thresholds
	// spareTh is the schedule a threshold move computes the new one into
	// (scheduleAt); the move then swaps it with th.
	spareTh *density.Thresholds
	g       *graph.Graph
	ix      *index.Index

	// Rescaled-decay state (see threshold.go). The engine's graph, index,
	// and threshold schedule may run in normalized weight units w' = w/λ;
	// emitScale holds λ, the factor that converts internal scores and
	// densities back to real (paper-semantics) units at every emission and
	// query point. base is the real-unit schedule, fixed at New: the schedule
	// in force is always base.Normalize(emitScale).
	emitScale float64
	base      *density.Thresholds

	stats Stats

	// sink receives events as they are discovered: the one installed by
	// SetSink, or discardSink when there is none.
	sink EventSink
	// cloneSets records whether sink retains Event.Set beyond Emit (see
	// SetRetainer), read at the start of each unit; only then does emit clone
	// the set out of engine scratch.
	cloneSets bool
	// boundary is sink's UpdateBoundarySink capability, cached at SetSink so
	// the per-update dispatch is a nil check rather than a type assertion.
	boundary UpdateBoundarySink

	// Per-update scratch state (valid during Process only).
	a, b    Vertex
	delta   float64
	maxIter int

	// Reusable buffers. A steady-state unit — one that admits nothing and
	// whose vertices come back at no higher degree than they left with —
	// allocates nothing: the graph recycles the neighbourhood vectors of the
	// vertices that come and go (graph's vector pool), a threshold move
	// rewrites the spare schedule in place, index snapshots land in
	// affectedBuf/denseBuf/partnerBuf/starBuf, sets are reconstructed and
	// extended in buffers drawn from the setFree list, and neighbourhood
	// scans run in NeighborhoodBufs from nbufFree. The free lists (rather
	// than single buffers) exist because exploration is recursive: each
	// explore frame pops its own buffers and pushes them back when done, so a
	// parent's scan results and candidate set survive the admissions it
	// recurses into. Depth is bounded by Nmax, so each list settles at a
	// handful of entries.
	affectedBuf []*index.Node // the subgraphs an update or batch touches (reuseSnapshot)
	denseBuf    []*index.Node // whole-index snapshots (denseSnapshot)
	partnerBuf  []*index.Node // positive pass: the partners of affectedBuf (index.AppendDensePaired)
	starBuf     []*index.Node // positive pass: the families processStars visits (snapshotPositive)
	starsOut    int           // positive pass: the families it counts as failed attempts instead
	setFree     [][]Vertex
	nbufFree    []*graph.NeighborhoodBuf
	pairBuf     [2]Vertex // seed-pair scratch

	// Per-unit scratch state (valid during a batch unit only; see batch.go).
	// All containers are engine-owned and reused across batches, so a
	// steady-state batch — like a steady-state Process — allocates nothing.
	batching    bool
	batchNet    []pairDelta   // net applied delta per changed pair, sorted by key (phase order)
	batchDirty  []Vertex      // sorted distinct endpoints of changed pairs
	batchRaised []Vertex      // those of the pairs whose net delta is positive
	dirtyInC    []Vertex      // batchDeltaOf's dirty∩C scratch
	staged      []stagedEvent // output-dense transitions of the batch, in discovery order
	// wholeIndexRepair makes batchRepair walk the whole index for a batch
	// whose pairs all fell, where it would walk the subgraphs holding both
	// endpoints of each pair. Only tests set it, to hold the two routes to
	// the same result.
	wholeIndexRepair bool
	// wholeStarScan makes every positive pass snapshot the whole '*' list,
	// where it would select the families that can act (selectStars). Only
	// tests set it; they read starRoutes: how many passes selected ([0]) and
	// how many snapshot the whole list ([1]).
	wholeStarScan bool
	starRoutes    [2]int
}

// getSetBuf pops a vertex-set scratch buffer off the free list.
func (e *Engine) getSetBuf() []Vertex {
	if n := len(e.setFree); n > 0 {
		b := e.setFree[n-1]
		e.setFree = e.setFree[:n-1]
		return b
	}
	return make([]Vertex, 0, 8)
}

// putSetBuf returns a scratch buffer (possibly regrown by its user) to the
// free list.
func (e *Engine) putSetBuf(b []Vertex) { e.setFree = append(e.setFree, b[:0]) }

// getNbuf pops a neighbourhood-scan scratch buffer off the free list.
func (e *Engine) getNbuf() *graph.NeighborhoodBuf {
	if n := len(e.nbufFree); n > 0 {
		b := e.nbufFree[n-1]
		e.nbufFree = e.nbufFree[:n-1]
		return b
	}
	return &graph.NeighborhoodBuf{}
}

// putNbuf returns a neighbourhood buffer to the free list.
func (e *Engine) putNbuf(b *graph.NeighborhoodBuf) { e.nbufFree = append(e.nbufFree, b) }

// reuseSnapshot empties a snapshot buffer of the nodes an update touches for
// the next snapshot. It clears the entries first: every snapshot goes through
// it, so the buffer holds no pointer past its length, and an entry left behind
// would keep the node of a subgraph evicted since alive. Clearing costs what
// filling cost; whole-index snapshots, which a small one would then pay for,
// go to denseBuf, which every such snapshot refills in full.
func reuseSnapshot(buf []*index.Node) []*index.Node {
	clear(buf)
	return buf[:0]
}

// New creates a DynDens engine. It validates the configuration (threshold
// schedule, δ_it range, measure monotonicity).
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	th, err := density.NewThresholds(cfg.Measure, cfg.T, cfg.Nmax, cfg.DeltaIt)
	if err != nil {
		return nil, err
	}
	base, _ := density.NewThresholds(cfg.Measure, cfg.T, cfg.Nmax, cfg.DeltaIt)
	return &Engine{
		cfg:       cfg,
		th:        th,
		spareTh:   new(density.Thresholds),
		g:         graph.New(),
		ix:        index.New(cfg.Nmax),
		emitScale: 1,
		base:      base,
		sink:      discardSink{},
	}, nil
}

// MustNew is New that panics on error; intended for tests and examples.
// Production callers use New and handle the error: throughout the engine,
// panics are reserved for Must* test helpers and invariant violations that
// mark caller bugs (use after Close, a threshold-batch scale producing an
// unrepresentable threshold) — every recoverable failure is a returned error
// (see the internal/stream package comment for the pipeline-wide contract).
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the effective configuration (with defaults applied), T and
// DeltaIt read off the schedule in force: in normalized units, baseT/λ, once
// a threshold unit has moved it.
func (e *Engine) Config() Config {
	c := e.cfg
	c.T, c.DeltaIt = e.th.T, e.th.DeltaIt
	return c
}

// Thresholds exposes the active threshold schedule. The engine keeps two
// schedules and rewrites the inactive one in place on every threshold unit
// that changes T, so the returned one is the active schedule until the next
// move and is overwritten by the move after that: read it between units, not
// across them.
func (e *Engine) Thresholds() *density.Thresholds { return e.th }

// DecayScale returns the cumulative decay scale λ the engine currently runs
// under: internal scores are normalized units and real score = internal·λ.
// It is 1 unless ProcessThresholdBatch has been used (rescaled decay mode).
func (e *Engine) DecayScale() float64 { return e.emitScale }

// Graph exposes the maintained weighted graph for read-only inspection.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Stats returns a snapshot of the work counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.IndexedDense = e.ix.Len()
	s.IndexedStars = e.ix.StarCount()
	s.IndexNodes = e.ix.NodeCount()
	return s
}

// SetSink installs the destination for output events: the engine pushes each
// Became/CeasedOutputDense change to it the moment it is discovered (or, for
// a batch unit, at the unit's end). Passing nil installs a sink that drops
// every event; Stats.Events still counts them. A new engine starts that way.
//
// The sink is invoked synchronously on the processing goroutine and must not
// call back into the engine; see EventSink for the full contract. If the sink
// implements UpdateBoundarySink it is additionally told where each unit ends
// (once per Process call, no-ops included, and once per batch unit, threshold
// units included).
func (e *Engine) SetSink(s EventSink) {
	if s == nil {
		s = discardSink{}
	}
	e.sink = s
	e.boundary, _ = s.(UpdateBoundarySink)
}

// Sink returns the sink SetSink installed, nil if there is none.
func (e *Engine) Sink() EventSink {
	if _, none := e.sink.(discardSink); none {
		return nil
	}
	return e.sink
}

// endUpdate tells a boundary-aware sink that the current unit is complete.
// The no-op return paths call it too, so that every Process call —
// event-producing or not — advances the sink's update sequence.
func (e *Engine) endUpdate() {
	if e.boundary != nil {
		e.boundary.EndUpdate()
	}
}

// Process applies one edge-weight update and pushes the resulting changes to
// the output-dense subgraph set to the sink. Updates with A == B or Delta == 0
// are no-ops.
func (e *Engine) Process(u Update) {
	e.stats.Updates++
	if u.A == u.B || u.Delta == 0 {
		e.endUpdate()
		return
	}
	before, after := e.g.Apply(u)
	applied := after - before // Delta clamped if the weight would go negative
	if applied == 0 {
		e.endUpdate()
		return
	}
	e.a, e.b, e.delta = u.A, u.B, applied
	e.cloneSets = SinkRetainsSets(e.sink)
	e.ix.BeginUpdate()
	if applied < 0 {
		e.stats.NegativeUpdates++
		e.processNegative()
	} else {
		e.stats.PositiveUpdates++
		e.processPositive(after)
	}
	e.noteIndexSize()
	e.endUpdate()
}

// noteIndexSize raises the index high-water mark to the current node count.
func (e *Engine) noteIndexSize() {
	if n := e.ix.NodeCount(); n > e.stats.MaxIndexNodes {
		e.stats.MaxIndexNodes = n
	}
}

// emit pushes an output event to the sink. The subgraph set
// usually lives in engine scratch, so it is cloned only when the installed
// sink declares it retains sets (SetRetainer); counting/filter-style sinks
// observe the scratch directly, which is what keeps the steady-state hot path
// allocation-free.
func (e *Engine) emit(kind EventKind, c vset.Set, score float64) {
	if e.batching {
		// Batched updates defer emission: transitions are staged, netted
		// against the pre-batch state, and flushed in canonical order at the
		// batch boundary (see batch.go).
		e.stageBatchEvent(kind, c, score)
		return
	}
	e.stats.Events++
	set := c
	if e.cloneSets {
		set = c.Clone()
	}
	e.sink.Emit(Event{
		Kind:    kind,
		Set:     set,
		Score:   score * e.emitScale,
		Density: e.th.Density(score, c.Len()) * e.emitScale,
	})
}

// scoreSlack bounds how far a stored score — maintained by adding deltas — may
// sit from the score recomputed from the graph, relative to their magnitude x.
// ValidateIndex checks the invariant; the discovery prefilters (unionAtMost,
// exploreNeed) widen their bounds by it, so they only discard candidates the
// exact classification would discard too.
func scoreSlack(x float64) float64 { return 1e-6 * math.Abs(x) }

// scoreBefore returns the score subgraph c carried before the change in
// flight: score − δ for a single update (exact for every subgraph on an
// exploration chain, which always contains both endpoints), and score minus
// c's summed per-pair net deltas for a batch. It feeds the too-dense-before
// pruning rules, whose justification — "its dense supergraphs were already
// represented" — is relative to the state before the whole logical tick.
func (e *Engine) scoreBefore(c vset.Set, score float64) float64 {
	if e.batching {
		return score - e.batchDeltaOf(c)
	}
	return score - e.delta
}

// bumpScore adjusts the stored score of a dense node (and its star family, if
// any) by delta and returns the new score.
func (e *Engine) bumpScore(n *index.Node, delta float64) float64 {
	newScore := e.ix.AddScore(n, delta)
	if star := e.ix.StarOf(n); star != nil {
		e.ix.SetScore(star, newScore)
	}
	return newScore
}

// evict removes a subgraph that stopped being dense from the index, after the
// reach certificates of its parents: they bound only children that are not
// indexed, as it now is. (A pair's parents are single vertices: never dense.)
func (e *Engine) evict(node *index.Node) {
	if node.Card() > 2 {
		e.ix.DropParentReach(node)
	}
	e.ix.EvictDense(node)
	e.stats.Evictions++
}

// processNegative handles δ < 0 (Algorithm 1, line 2): every dense subgraph
// containing both endpoints has its density decreased; subgraphs that drop
// below the output threshold are reported, and subgraphs that stop being
// dense are evicted from the index.
func (e *Engine) processNegative() {
	e.affectedBuf = e.ix.AppendDenseContainingBoth(reuseSnapshot(e.affectedBuf), e.a, e.b)
	for _, node := range e.affectedBuf {
		if !node.Dense() {
			continue // already evicted via pruning cascade
		}
		n := node.Card()
		wasOutput := e.th.IsOutputDense(node.Score(), n)
		newScore := e.bumpScore(node, e.delta)
		if wasOutput && !e.th.IsOutputDense(newScore, n) {
			c := node.SetInto(e.getSetBuf())
			e.emit(CeasedOutputDense, c, newScore)
			e.putSetBuf(c)
		}
		if e.ix.HasStar(node) && !e.th.IsTooDense(newScore, n) {
			e.ix.RemoveStar(node)
		}
		if !e.th.IsDense(newScore, n) {
			e.evict(node)
		}
	}
}

// processPositive handles δ > 0 (Algorithm 1, lines 4–11); w is the updated
// edge's new weight.
func (e *Engine) processPositive(w float64) {
	a, b := e.a, e.b
	e.maxIter = e.th.Iterations(e.delta)

	split := e.snapshotPositive()

	// Base case: the edge {a, b} itself may have become dense.
	e.pairBuf[0], e.pairBuf[1] = a, b
	if a > b {
		e.pairBuf[0], e.pairBuf[1] = b, a
	}
	pair := vset.Set(e.pairBuf[:])
	if e.ix.LookupDense(pair) == nil && e.th.IsDense(w, 2) {
		e.admit(pair, w, 1)
	}

	setBuf := e.getSetBuf()
	for i, node := range e.affectedBuf {
		if !node.Dense() {
			continue
		}
		if partner := e.partnerBuf[i]; partner != node {
			// Contains exactly one endpoint — the larger one before split, the
			// smaller after: cheap-explore (lines 6–8).
			e.cheapExplore(node, partner, (i < split) == (a > b))
			continue
		}
		// Stable-dense: its score grows by δ (Algorithm 1, line 10–11).
		c := node.SetInto(setBuf)
		setBuf = c
		n := c.Len()
		wasOutput := e.th.IsOutputDense(node.Score(), n)
		newScore := e.bumpScore(node, e.delta)
		if !wasOutput && e.th.IsOutputDense(newScore, n) {
			e.emit(BecameOutputDense, c, newScore)
		}
		if e.maintainStar(node, newScore, n) {
			e.starEdgeScan(c, newScore, 2)
		}
		e.explore(node, c, 1)
	}
	e.putSetBuf(setBuf)

	e.processStars()
}

// snapshotPositive takes the snapshots of a positive pass for {e.a, e.b}
// before any insertions, so that each pre-existing dense subgraph and family
// is examined exactly once: the dense subgraphs holding an endpoint with
// their partners, whose cheap-explorations that end at an indexed union it
// counts, and the families processStars visits. It returns the split of
// index.AppendDensePaired. The snapshot slices are engine-owned and reused
// across updates.
func (e *Engine) snapshotPositive() (split int) {
	var indexed int
	e.affectedBuf, e.partnerBuf, split, indexed = e.ix.AppendDensePaired(reuseSnapshot(e.affectedBuf), reuseSnapshot(e.partnerBuf), e.a, e.b)
	e.stats.CheapExplores += uint64(indexed)
	e.stats.CheapIndexed += uint64(indexed)
	e.starsOut = 0
	e.starBuf = reuseSnapshot(e.starBuf)
	if !e.wholeStarScan && e.selectStars() {
		e.starRoutes[0]++
	} else {
		e.starBuf = e.ix.AppendStarNodes(reuseSnapshot(e.starBuf))
		e.starRoutes[1]++
	}
	return split
}

// selectStars snapshots into starBuf the families a positive pass for {a, b}
// can act on, in '*'-list order, and sets starsOut to the number of the others,
// whose visits would each be a failed cheap-exploration attempt. processStar
// acts only on a family whose base C has at most Nmax−2 vertices (the index's
// tracked families). If C holds neither a, b nor a neighbour of either,
// Γ_a·C = Γ_b·C = 0, so its check reads the family's score plus w_ab alone,
// and fails when unionAtMost of that is not dense at |C|+2. The index bounds
// the scores of the families of each base cardinality, and unionAtMost and
// IsDense are monotone in the score: where no bound passes the check, the
// families in the postings of a, b and their neighbours are the only ones a
// whole-list pass would act on. It reports false, for the caller to snapshot
// the whole list, when a bound passes, or when the neighbours outnumber the
// families' base vertices or the postings outnumber the families: there the
// whole list is the cheaper read.
func (e *Engine) selectStars() bool {
	total := e.ix.TrackedFamilies()
	if total == 0 {
		return true
	}
	ends := e.starEndsOf(e.a, e.b)
	posted := 0
	for k := 2; k <= e.th.Nmax-2; k++ {
		count, bound := e.ix.Families(k)
		if most, _ := ends.unionAtMost(bound, nil); count > 0 && e.th.IsDense(most, k+2) {
			return false
		}
		posted += k * count
	}
	if len(ends.aVs)+len(ends.bVs) > posted {
		return false
	}
	fams := append(e.starBuf, e.ix.FamiliesOf(e.a)...)
	fams = append(fams, e.ix.FamiliesOf(e.b)...)
	for _, vs := range [2][]Vertex{ends.aVs, ends.bVs} {
		for _, v := range vs {
			if fams = append(fams, e.ix.FamiliesOf(v)...); len(fams) > total {
				e.starBuf = fams
				return false
			}
		}
	}
	e.starBuf = index.InStarOrder(fams)
	e.starsOut = total - len(e.starBuf)
	return true
}

// cheapExplore attempts to augment the dense subgraph C of node, which
// contains exactly one of the updated endpoints (hasA tells which), with the
// other endpoint and thus with the updated edge. partner is the node the
// update's snapshot found for the union C ∪ {missing}, or nil: a positive pass
// only adds to the index, so its dense flag read now tells whether the union
// is indexed, admissions earlier in the pass included, and only a union that
// had no node yet is looked up. C itself is built only where the weight the
// missing endpoint puts into it is needed.
//
// The update raised that weight, which is the one way an update breaks node's
// reach certificate — unless C ∪ {missing} is indexed, a child the certificate
// need not cover. So the exits that find the union indexed, or admit it, keep
// it, and the one that finds the union not dense raises it to that weight.
func (e *Engine) cheapExplore(node, partner *index.Node, hasA bool) {
	missing := e.b
	if !hasA {
		missing = e.a
	}
	// C contains exactly one endpoint, so missing ∉ C and |C ∪ {missing}| is
	// |C|+1; the cardinality gate needs no materialised union. Nothing ever
	// explores around a subgraph of Nmax vertices, so it has no certificate.
	n := node.Card()
	if n+1 > e.th.Nmax {
		return
	}
	e.stats.CheapExplores++
	if partner != nil && partner.Dense() {
		e.stats.CheapIndexed++
		return
	}
	score := node.Score()
	c := node.SetInto(e.getSetBuf())
	add := e.g.ScoreWith(c, missing)
	union := vset.AddInto(e.getSetBuf(), c, missing)
	if partner == nil && e.ix.HasDense(union) {
		e.stats.CheapIndexed++
	} else if uScore := score + add; e.th.IsDense(uScore, n+1) {
		e.admit(union, uScore, 2)
	} else {
		node.RaiseReach(add)
	}
	e.putSetBuf(union)
	e.putSetBuf(c)
}

// maintainStar keeps the invariant that every explicitly indexed dense
// subgraph that is too-dense carries an ImplicitTooDense family. It reports
// whether it created the family: the caller then owes the newly implicit
// members a discovery pass (starEdgeScan) — exploreStarMembers only covers
// families that already existed when the update began.
func (e *Engine) maintainStar(node *index.Node, score float64, n int) bool {
	if n < e.th.Nmax && e.th.IsTooDense(score, n) && !e.ix.HasStar(node) {
		e.ix.InsertStar(node)
		e.stats.starInsertions++
		return true
	}
	return false
}

// starEdgeScan runs the discovery owed when base's ImplicitTooDense family is
// first created: the members base∪{u} are only implicit, so an edge {u, v}
// between two outside vertices can make base∪{u, v} dense with no explicit
// subgraph to grow it from. Following Section 3.2.3, the base is augmented
// with whole edges of sufficient weight; each admission goes through admit,
// at exploration iteration iter, so it is reported, starred, and explored like
// any other discovery. The least weight such an edge can have is what the
// union lacks to DenseFloor(n+2), less exploreNeed's slack, so every union
// IsDense would accept — a tie with T included — is among the edges the graph
// enumerates.
func (e *Engine) starEdgeScan(base vset.Set, score float64, iter int) {
	n := base.Len()
	if n+2 > e.th.Nmax {
		return
	}
	floor := e.th.DenseFloor(n + 2)
	buf := e.getSetBuf()
	e.g.EdgesNotIncident(base, floor-score-scoreSlack(floor+math.Abs(score)), func(u, v Vertex, w float64) {
		cand := vset.Add2Into(buf, base, u, v)
		buf = cand
		if e.ix.HasDense(cand) {
			return
		}
		s := e.g.Score(cand)
		if e.th.IsDense(s, n+2) {
			e.admit(cand, s, iter)
		}
	})
	e.putSetBuf(buf)
}

// admit inserts a subgraph discovered to be dense during the current update,
// reports it if it is output-dense, and explores around it. iter is the
// exploration iteration at which it was identified (Algorithm 2).
func (e *Engine) admit(c vset.Set, score float64, iter int) {
	node := e.ix.InsertDense(c, score)
	e.ix.Annotate(node, iter)
	e.stats.Insertions++
	n := c.Len()
	if e.th.IsOutputDense(score, n) {
		e.emit(BecameOutputDense, c, score)
	}
	if e.maintainStar(node, score, n) {
		e.starEdgeScan(c, score, iter+1)
	}
	e.explore(node, c, iter)
}

// processStar handles one ImplicitTooDense family during a positive update.
// The family of a too-dense base C stands for every C∪{y} with y disconnected
// from C. Three cases matter (README.md, "ImplicitTooDense families"):
//
//   - a, b ∈ C: the base's score (and hence every member's score) grew; the
//     base itself was handled as a stable-dense subgraph. Members may now be
//     able to absorb an edge that is not incident on C (the paper's
//     "explore C∪{*}" case); exploreStarMembers covers it.
//   - exactly one of a, b ∈ C: the union C∪{a,b} equals the base's own
//     cheap-exploration result and is handled there.
//   - a, b ∉ C: if a (or b) is disconnected from C, the member C∪{a} (C∪{b})
//     is an implicitly represented dense subgraph containing exactly one
//     endpoint; cheap-exploring it yields C∪{a,b}.
//
// Every case that acts admits a subgraph of |C|+2 vertices, so a family whose
// base already has Nmax−1 is skipped before its set is even reconstructed.
func (e *Engine) processStar(star *index.Node, ends *starEnds) {
	if star.Card()+1 > e.th.Nmax {
		return
	}
	baseBuf := e.getSetBuf()
	base := star.SetInto(baseBuf)
	defer e.putSetBuf(base)
	a, b := e.a, e.b
	hasA, hasB := base.Contains(a), base.Contains(b)
	switch {
	case hasA && hasB:
		e.exploreStarMembers(star, base)
	case hasA || hasB:
		// Covered by the cheap-exploration of the (explicit) base.
	default:
		most, due := ends.unionAtMost(star.Score(), base)
		if !due {
			return
		}
		if !e.th.IsDense(most, base.Len()+2) {
			// The attempt ends here: the union is not dense, and not indexed
			// either, since an indexed subgraph is dense.
			e.stats.CheapExplores++
			return
		}
		unionBuf := e.getSetBuf()
		union := vset.Add2Into(unionBuf, base, a, b)
		if !e.ix.HasDense(union) {
			e.stats.CheapExplores++
			score := e.g.Score(union)
			if e.th.IsDense(score, union.Len()) {
				e.admit(union, score, 2)
			}
		}
		e.putSetBuf(union)
	}
}

// processStars examines the ImplicitTooDense families (Section 3.2.3) of the
// positive pass's snapshot, in the order of the inverted list of '*', and
// counts the failed attempts of those the snapshot left out (selectStars).
func (e *Engine) processStars() {
	e.stats.CheapExplores += uint64(e.starsOut)
	if len(e.starBuf) == 0 {
		return
	}
	ends := e.starEndsOf(e.a, e.b)
	for _, star := range e.starBuf {
		e.processStar(star, &ends)
	}
}

// starEnds is what the both-outside check of every family reads of the graph
// for one positive pair {a, b}, fetched once for all of them: the endpoints'
// neighbourhood vectors and w_ab.
type starEnds struct {
	aVs, bVs []Vertex
	aWs, bWs []float64
	wab      float64
}

func (e *Engine) starEndsOf(a, b Vertex) starEnds {
	s := starEnds{wab: e.g.Weight(a, b)}
	s.aVs, s.aWs = e.g.Neighborhood(a)
	s.bVs, s.bWs = e.g.Neighborhood(b)
	return s
}

// unionAtMost is the O(|C|) step that settles almost every both-outside
// family check before the union C∪{a, b} is built, looked up and re-scored.
// due reports whether a or b is disconnected from the base C, so that C∪{a}
// or C∪{b} is an implicit member owed a cheap-exploration. most bounds the
// union's score from above: the family's stored score plus both endpoints'
// weight into C plus w_ab, raised by twice the slack a stored score may carry.
// IsDense is monotone in the score, so a union that is not dense at most is
// not dense; anything else goes to the exact path, which alone admits.
func (s *starEnds) unionAtMost(stored float64, base vset.Set) (most float64, due bool) {
	wa, wb := weightInto(s.aVs, s.aWs, base), weightInto(s.bVs, s.bWs, base)
	est := stored + wa + wb + s.wab
	return est + 2*scoreSlack(est), wa == 0 || wb == 0
}

// weightInto returns the total weight the neighbourhood vector (vs, ws) puts
// on the vertices of c: Graph.ScoreWith for a vector already in hand.
func weightInto(vs []Vertex, ws []float64, c vset.Set) (sum float64) {
	for _, v := range c {
		if i := vset.Search(vs, v); i < len(vs) && vs[i] == v {
			sum += ws[i]
		}
	}
	return sum
}

// exploreStarMembers handles the rare case in which implicitly represented
// members C∪{y} of a too-dense base C (with both updated endpoints inside C)
// could spawn newly-dense subgraphs C∪{y,z} through an edge {y,z} that is not
// incident on C. Following Section 3.2.3, the base is augmented with whole
// edges of sufficient weight instead of enumerating every member.
func (e *Engine) exploreStarMembers(star *index.Node, base vset.Set) {
	if e.maxIter < 1 {
		return
	}
	scoreAfter := star.Score()
	// If members were already too-dense before the update their dense
	// supergraphs were already representable; nothing new can appear.
	if e.th.IsTooDense(e.scoreBefore(base, scoreAfter), base.Len()+1) {
		return
	}
	e.starEdgeScan(base, scoreAfter, 2)
}

// exploreNeed returns the deficit an exploration around a subgraph of n
// vertices hands to the neighbourhood scan: a vertex whose edges into the
// subgraph sum to less cannot make a dense child. It is what the child lacks
// to DenseFloor(n+1), less a slack far above the rounding of the two sums
// involved, so every child IsDense would accept is among the candidates; the
// candidates are still classified one by one.
func (e *Engine) exploreNeed(score float64, n int) float64 {
	floor := e.th.DenseFloor(n + 1)
	return floor - score - scoreSlack(floor+math.Abs(score))
}

// explore implements Algorithm 2: try to augment the dense subgraph c of node,
// which contains both updated endpoints, with one more vertex, recursing on
// newly-dense results for up to ceil(δ/δ_it) iterations.
//
// The cost is the neighbourhood scan, and node's reach certificate tells when
// it finds nothing: no vertex y puts more weight than reach into c unless
// c ∪ {y} is indexed, so with reach below the scan's deficit every vertex the
// scan would return has its child indexed, none is admitted, and nothing but
// a counter changes. The certificate is a fact about graph and index — the
// deficit is computed live — which four things break, each repaired where it
// happens: a positive update of an edge out of c (cheapExplore, which visits
// exactly those subgraphs), a child's eviction (evict), a batch, whose deltas
// all precede discovery (batchRepair), and node entering the index (it starts
// without one; none is persisted). A scan leaves a fresh one: what the graph
// reports of the vertices left out, raised to those returned whose child was
// neither admitted nor indexed.
func (e *Engine) explore(node *index.Node, c vset.Set, iter int) {
	n, score := c.Len(), node.Score()
	if n >= e.th.Nmax {
		return
	}
	// A subgraph that was too-dense before the update need not be explored:
	// its dense supergraphs were stable-dense and are already represented.
	if e.th.IsTooDense(e.scoreBefore(c, score), n) {
		return
	}
	if iter > e.maxIter {
		return
	}
	need := e.exploreNeed(score, n)
	if node.Reach() < need {
		e.stats.ExploreCertified++
		return
	}
	e.stats.Explorations++
	// The neighbourhood scan and the candidate set work in buffers popped
	// off the engine free lists: admissions recurse back into explore, and
	// that deeper frame pops its own buffers, so ys/adds and child stay
	// intact underneath it.
	nbuf := e.getNbuf()
	ys, adds := e.g.NeighborhoodScores(c, need, nbuf)
	reach := nbuf.Reach
	childBuf := e.getSetBuf()
	for i, y := range ys {
		add := adds[i]
		childScore := score + add
		if !e.th.IsDense(childScore, n+1) {
			reach = max(reach, add)
			continue
		}
		child := vset.AddInto(childBuf, c, y)
		childBuf = child
		if e.ix.HasDense(child) {
			// Stable-dense supergraphs are examined through the index snapshot;
			// subgraphs admitted earlier in this update carry an iteration
			// annotation and need not be examined again (Section 3.2.2).
			continue
		}
		e.admit(child, childScore, iter+1)
	}
	// Discovery only adds to the index and the graph does not move under it,
	// so what the scan saw still holds after the admissions it recursed into.
	node.SetReach(reach)
	e.putSetBuf(childBuf)
	e.putNbuf(nbuf)
}
