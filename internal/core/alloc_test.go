// Allocation-discipline tests for the Process hot path. The sorted-vector
// graph, the engine scratch free lists, and the sink clone-elision contract
// together promise that a steady-state update — one that changes weights but
// does not admit, evict, or report any subgraph — performs ZERO allocations:
// no neighbourhood maps, no candidate-set copies, no snapshot slices, no
// event clones. These tests pin that promise with testing.AllocsPerRun.
//
// Workload construction: the engine is warmed exactly like the benchmarks
// (skewed stream, T=100, Nmax=5), then updates of magnitude ±1e-9 are applied
// to edges internal to currently indexed dense subgraphs. The tiny magnitude
// keeps every score far from any threshold, so the full exploration machinery
// runs (snapshots, stable-dense bumps, neighbourhood merges, cheap-explores)
// while the index and the output-dense set stay fixed — the regime a
// long-running deployment spends almost all of its time in.
package core_test

import (
	"math"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/stream"
	"dyndens/internal/vset"
)

// steadyStateEngine returns a warm engine with a non-retaining sink and a set
// of edges that lie inside indexed dense subgraphs (so updates to them walk
// the full positive/negative paths).
func steadyStateEngine(t *testing.T) (*core.Engine, []core.Update) {
	t.Helper()
	warm, err := stream.Synthetic(stream.SynthConfig{
		Vertices: benchVertices, Seed: 1, Skew: benchSkew, Updates: benchWarm,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.MustNew(benchConfig())
	eng.SetSink(&core.CountingSink{})
	for _, u := range warm {
		eng.Process(u)
	}

	dense := eng.Dense()
	if len(dense) == 0 {
		t.Fatal("warm engine has no dense subgraphs; workload is mis-tuned")
	}
	var edges []core.Update
	seen := map[[2]core.Vertex]bool{}
	for _, sg := range dense {
		c := sg.Set
		for i := 0; i < c.Len(); i++ {
			for j := i + 1; j < c.Len(); j++ {
				a, b := c[i], c[j]
				if eng.Graph().Weight(a, b) == 0 || seen[[2]core.Vertex{a, b}] {
					continue
				}
				seen[[2]core.Vertex{a, b}] = true
				edges = append(edges, core.Update{A: a, B: b})
				if len(edges) == 32 {
					return eng, edges
				}
			}
		}
	}
	if len(edges) == 0 {
		t.Fatal("no internal edges found in dense subgraphs")
	}
	return eng, edges
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
		t.Errorf("%s: steady-state Process performed %v allocs/run, want 0", name, allocs)
	}
}

func TestProcessSteadyStateZeroAllocPositive(t *testing.T) {
	eng, edges := steadyStateEngine(t)
	const delta = 1e-9
	// Pre-run once so any first-touch buffer growth happens before measuring.
	for _, u := range edges {
		u.Delta = delta
		eng.Process(u)
	}
	assertZeroAllocs(t, "positive", func() {
		for _, u := range edges {
			u.Delta = delta
			eng.Process(u)
		}
	})
}

func TestProcessSteadyStateZeroAllocNegative(t *testing.T) {
	eng, edges := steadyStateEngine(t)
	const delta = 1e-9
	for _, u := range edges {
		u.Delta = -delta
		eng.Process(u)
	}
	assertZeroAllocs(t, "negative", func() {
		for _, u := range edges {
			u.Delta = -delta
			eng.Process(u)
		}
	})
}

func TestProcessSteadyStateZeroAllocMixed(t *testing.T) {
	eng, edges := steadyStateEngine(t)
	const delta = 1e-9
	cycle := func() {
		for i, u := range edges {
			if i%2 == 0 {
				u.Delta = delta
			} else {
				u.Delta = -delta
			}
			eng.Process(u)
		}
		// Reverse signs so every edge's weight returns to baseline each cycle
		// and repeated runs cannot drift across a threshold.
		for i, u := range edges {
			if i%2 == 0 {
				u.Delta = -delta
			} else {
				u.Delta = delta
			}
			eng.Process(u)
		}
	}
	cycle()
	assertZeroAllocs(t, "mixed", cycle)
}

// TestProcessBatchSteadyStateZeroAlloc pins the batched hot path to the same
// allocation discipline as Process: a steady-state batch — weights move, the
// output-dense set does not — performs zero allocations with a non-retaining
// sink. The batch machinery (sorted per-pair net deltas, dirty-vertex scratch,
// whole-index snapshot, event staging) must all come from engine-owned
// reusable storage.
func TestProcessBatchSteadyStateZeroAlloc(t *testing.T) {
	eng, edges := steadyStateEngine(t)
	const delta = 1e-9
	// Two bursts per cycle — an all-positive batch exercising the discovery
	// phase and an all-negative one exercising the repair/decay path (the
	// epoch-burst shape) — mirrored so every weight returns to baseline each
	// cycle and repeated runs cannot drift across a threshold. Duplicate
	// pairs within each burst exercise the coalescing path.
	pos := make([]core.Update, 0, 2*len(edges))
	neg := make([]core.Update, 0, 2*len(edges))
	for _, u := range edges {
		u.Delta = delta / 2
		pos = append(pos, u, u)
		u.Delta = -delta / 2
		neg = append(neg, u, u)
	}
	cycle := func() {
		eng.ProcessBatch(pos)
		eng.ProcessBatch(neg)
	}
	// Pre-run so first-touch growth of the batch scratch (net-delta and dirty
	// slices, index snapshot buffer) happens before measuring.
	cycle()
	assertZeroAllocs(t, "batch", cycle)
}

// TestThresholdTickSteadyStateZeroAlloc pins the decay epoch of a quiet
// stream: a rising-threshold tick over a few hundred indexed subgraphs, none
// of which crosses a bound, classifies every node from its cardinality and
// score and allocates nothing — the new schedule is rescaled into the
// engine's spare one, and there is no index snapshot or vertex set per node.
func TestThresholdTickSteadyStateZeroAlloc(t *testing.T) {
	eng, _ := steadyStateEngine(t)
	if eng.DenseCount() < 200 {
		t.Fatalf("only %d indexed subgraphs; the walk is not exercised", eng.DenseCount())
	}
	scale := 1.0
	tick := func() {
		scale *= 1 - 1e-12 // the threshold moves; nothing is that close to a bound
		eng.ProcessThresholdBatch(scale, nil)
	}
	tick()
	before := eng.Stats()
	assertZeroAllocs(t, "quiet threshold tick", tick)
	after := eng.Stats()
	if after.ThresholdTicks == before.ThresholdTicks || eng.Config().T <= benchConfig().T {
		t.Fatal("the ticks did not move the threshold")
	}
	if after.Evictions != before.Evictions || after.Events != before.Events || after.IndexedStars != before.IndexedStars {
		t.Fatalf("the ticks were not quiet: %+v → %+v", before, after)
	}
}

// TestBackgroundChurnSteadyStateZeroAlloc pins the fading stream's churn: a
// planted group stays indexed while a batch of documents brings background
// entities in — light pairs between them and into the group — and the next
// epoch's tick retires every one of those pairs, so the entities leave the
// graph, and moves the threshold. Once the first cycle has stocked the
// graph's vector pool and the spare schedule, a cycle allocates nothing:
// entities come back in recycled vectors, the schedule is rescaled in place,
// and the retirements repair only the subgraphs holding both endpoints.
func TestBackgroundChurnSteadyStateZeroAlloc(t *testing.T) {
	eng := core.MustNew(core.Config{T: 3, Nmax: 5})
	eng.SetSink(&core.CountingSink{})
	group := []core.Vertex{0, 1, 2, 3, 4}
	for i, a := range group {
		for _, b := range group[i+1:] {
			eng.Process(core.Update{A: a, B: b, Delta: 31.0 / 8})
		}
	}
	var born, retired []core.Update
	for x := core.Vertex(100); x < 112; x++ { // sixteenths cancel exactly
		born = append(born, core.Update{A: x, B: x + 1, Delta: 1.0 / 16}, core.Update{A: x, B: group[x%5], Delta: 1.0 / 16})
	}
	for _, u := range born {
		retired = append(retired, core.Update{A: u.B, B: u.A, Delta: -u.Delta})
	}
	if len(retired) > eng.DenseCount() {
		t.Fatalf("fixture: %d retirements against %d indexed subgraphs take the whole-index walk", len(retired), eng.DenseCount())
	}
	scale := 1.0
	cycle := func() {
		eng.ProcessBatch(born)
		scale *= 1 - 1e-12
		eng.ProcessThresholdBatch(scale, retired)
	}
	cycle()
	before := eng.Stats()
	assertZeroAllocs(t, "background churn", cycle)
	after := eng.Stats()
	if after.ThresholdTicks == before.ThresholdTicks || after.NegativeUpdates == before.NegativeUpdates {
		t.Fatal("the cycles retired nothing")
	}
	if after.Insertions != before.Insertions || after.Evictions != before.Evictions || after.Events != before.Events {
		t.Fatalf("the cycles were not steady: %+v → %+v", before, after)
	}
	if n := eng.Graph().NumVertices(); n != len(group) {
		t.Fatalf("%d vertices in the graph after the retirements, want the group's %d", n, len(group))
	}
}

// TestThresholdTickAfterLargeBatchStaysSmall: the cost of a tick follows the
// tick, not the largest batch the engine ever saw. A four-retirement epoch
// issued right after a batch of over ten thousand pairs
// allocates exactly what the same epoch costs an engine that never saw the
// large batch.
func TestThresholdTickAfterLargeBatchStaysSmall(t *testing.T) {
	mk := func(large bool) func() {
		eng := core.MustNew(core.Config{T: 3, Nmax: 5})
		eng.SetSink(&core.CountingSink{})
		eng.ProcessBatch([]core.Update{{A: 0, B: 1, Delta: 9}, {A: 0, B: 2, Delta: 9}, {A: 1, B: 2, Delta: 9}})
		if large {
			big := make([]core.Update, 0, 12000)
			for i := 0; i < 12000; i++ {
				big = append(big, core.Update{A: core.Vertex(10 + i), B: core.Vertex(20010 + i%97), Delta: 0.01})
			}
			eng.ProcessThresholdBatch(1, big)
		}
		if eng.DenseCount() == 0 {
			t.Fatal("fixture has no indexed subgraph")
		}
		scale, sign := 1.0, 1.0
		return func() {
			scale *= 0.999
			sign = -sign
			eng.ProcessThresholdBatch(scale, []core.Update{
				{A: 0, B: 1, Delta: sign * 1e-9}, {A: 3, B: 4, Delta: sign * 1e-9},
				{A: 1, B: 0, Delta: sign * 1e-9}, {A: 5, B: 6, Delta: sign * 1e-9},
			})
		}
	}
	small, afterLarge := mk(false), mk(true)
	small()
	afterLarge()
	want := testing.AllocsPerRun(50, small)
	if got := testing.AllocsPerRun(50, afterLarge); got != want {
		t.Errorf("a 4-update tick after a 12k-pair batch performed %v allocs/run, %v without the large batch", got, want)
	}
}

// TestThresholdTickNettingBuildsNoKey pins the event stage of a batch tick: a
// tick whose deltas lift every output-dense candidate of a triangle over T
// under the old threshold, while its scale raises the threshold back over
// them, stages a Became and a Ceased for the triangle and each of its pairs,
// and they net to nothing. Staging, netting and dropping them costs no
// allocation on top of a tick that moves the threshold the same way and
// stages nothing: the stage identifies a subgraph by its vertex set, not by a
// key string per staged event. The threshold only rises, as it does on every
// tick of a fading stream: lowering it would rebuild the index.
func TestThresholdTickNettingBuildsNoKey(t *testing.T) {
	// δ_it = T/3 puts the dense thresholds of pairs and triangles at T/2 and
	// 5T/6, whatever the scale, so what is not output-dense here stays indexed.
	eng := core.MustNew(core.Config{T: 3, Nmax: 5, DeltaIt: 1})
	var sink core.CountingSink
	eng.SetSink(&sink)
	pairs := [][2]core.Vertex{{0, 1}, {0, 2}, {1, 2}}
	us := make([]core.Update, len(pairs))
	scale := 1.0
	// tick raises the threshold 10% and moves every pair weight to target·T
	// under the old threshold T.
	tick := func(target float64) {
		T := eng.Config().T
		for i, p := range pairs {
			us[i] = core.Update{A: p[0], B: p[1], Delta: target*T - eng.Graph().Weight(p[0], p[1])}
		}
		scale /= 1.1
		eng.ProcessThresholdBatch(scale, us)
	}
	eng.ProcessBatch([]core.Update{{A: 0, B: 1, Delta: 2.7}, {A: 0, B: 2, Delta: 2.7}, {A: 1, B: 2, Delta: 2.7}})
	if eng.DenseCount() != 4 || eng.OutputDenseCount() != 0 {
		t.Fatalf("fixture: %d dense, %d output-dense, want the triangle and its pairs dense, none output-dense", eng.DenseCount(), eng.OutputDenseCount())
	}
	quiet := func() { tick(0.96) }   // stays under T, and dense under 1.1·T
	netting := func() { tick(1.05) } // crosses T, and falls back under 1.1·T
	quiet()
	netting()
	want := testing.AllocsPerRun(50, quiet)
	before := eng.Stats()
	if got := testing.AllocsPerRun(50, netting); got != want {
		t.Errorf("netting tick performed %v allocs/run, a quiet tick %v", got, want)
	}
	if after := eng.Stats(); after.Insertions != before.Insertions || after.Evictions != before.Evictions {
		t.Fatalf("the ticks changed the index: %+v → %+v", before, after)
	}
	if sink.Became != 0 || sink.Ceased != 0 || eng.DenseCount() != 4 || eng.OutputDenseCount() != 0 {
		t.Fatalf("the ticks were not event-free: %d became, %d ceased, %d dense, %d output-dense", sink.Became, sink.Ceased, eng.DenseCount(), eng.OutputDenseCount())
	}
}

// TestEmitCloneElision pins the sink capability contract: a retaining sink
// (CollectorSink) must receive private set copies, while a non-retaining
// chain (FilterSink → CountingSink) must not force clones — and the filter
// must still see valid sets during Emit.
func TestEmitCloneElision(t *testing.T) {
	mk := func() *core.Engine {
		eng := core.MustNew(core.Config{T: 1, Nmax: 4})
		return eng
	}

	// Retaining path: collected events must survive further processing.
	eng := mk()
	var collected core.CollectorSink
	eng.SetSink(&collected)
	eng.Process(core.Update{A: 1, B: 2, Delta: 5})
	eng.Process(core.Update{A: 2, B: 3, Delta: 5})
	eng.Process(core.Update{A: 1, B: 3, Delta: 5})
	evs := collected.Events()
	if len(evs) == 0 {
		t.Fatal("no events collected")
	}
	snapshot := make([]string, len(evs))
	for i, ev := range evs {
		snapshot[i] = ev.Set.Key()
	}
	// Drive more updates; retained sets must not be overwritten by scratch reuse.
	for i := 0; i < 50; i++ {
		eng.Process(core.Update{A: core.Vertex(10 + i), B: core.Vertex(11 + i), Delta: 2})
	}
	for i, ev := range evs {
		if ev.Set.Key() != snapshot[i] {
			t.Fatalf("retained event %d mutated: %q != %q", i, ev.Set.Key(), snapshot[i])
		}
	}

	// Non-retaining path: the filter observes correct sets at Emit time.
	eng = mk()
	counter := &core.CountingSink{}
	filter := &core.FilterSink{Next: counter, MinCardinality: 3}
	if core.SinkRetainsSets(filter) {
		t.Fatal("FilterSink→CountingSink chain should not retain sets")
	}
	eng.SetSink(filter)
	eng.Process(core.Update{A: 1, B: 2, Delta: 5})
	eng.Process(core.Update{A: 2, B: 3, Delta: 5})
	eng.Process(core.Update{A: 1, B: 3, Delta: 5})
	if counter.Total() == 0 || filter.Passed == 0 {
		t.Fatalf("filtered events did not flow: passed=%d total=%d", filter.Passed, counter.Total())
	}

	// MultiSink: retains iff any member retains.
	if !core.SinkRetainsSets(core.MultiSink{counter, &core.CollectorSink{}}) {
		t.Fatal("MultiSink with a collector member must retain")
	}
	if core.SinkRetainsSets(core.MultiSink{counter, &core.FilterSink{}}) {
		t.Fatal("MultiSink of non-retaining members must not retain")
	}
}

// TestStarScanSteadyStateZeroAlloc pins the discovery paths that take a
// deficit: a too-dense triple whose family is probed by every positive
// update. Nudging an edge inside the triple runs the bounded exploration
// around it (light neighbours, none reaching the deficit — after the first
// scan the triple's reach certificate says so, and the exploration is settled
// without one) and the family's heavy-edge scan (one far edge heavy enough,
// its union already indexed); nudging a far light edge runs the both-outside
// check, which the prefilter settles. A second triple, {40,41,42}, sits
// just below too-dense (17.875 of 17.98): nudging one of its pairs up by 1/8
// and back creates its family and removes it again, with the postings of its
// three vertices. None of it may allocate once the heavy-edge index has been
// built by the first scan — including the index's own upkeep and sweeps, which
// the measured updates drive, and the family's '*' node and postings, which
// the index recycles.
func TestStarScanSteadyStateZeroAlloc(t *testing.T) {
	eng := core.MustNew(core.Config{T: 3, Nmax: 5})
	eng.SetSink(&core.CountingSink{})
	for _, u := range []core.Update{
		{A: 10, B: 11, Delta: 7}, // heavy enough to close the triple's deficit of 6
		{A: 20, B: 21, Delta: 1}, {A: 22, B: 23, Delta: 1.5}, {A: 0, B: 30, Delta: 0.5}, {A: 1, B: 31, Delta: 0.5},
		{A: 0, B: 1, Delta: 8}, {A: 0, B: 2, Delta: 8}, {A: 1, B: 2, Delta: 8},
		// 24 + 5.875 keeps {0,1,2,40,41} below DenseFloor(5) ≈ 29.99.
		{A: 40, B: 41, Delta: 5.75}, {A: 40, B: 42, Delta: 6.0625}, {A: 41, B: 42, Delta: 6.0625},
	} {
		eng.Process(u)
	}
	if eng.ImplicitFamilyCount() != 1 || !eng.Contains(vset.New(0, 1, 2, 10, 11)) || !eng.Contains(vset.New(40, 41, 42)) {
		t.Fatalf("setup: %d families, {0,1,2,10,11} indexed: %v, {40,41,42}: %v", eng.ImplicitFamilyCount(),
			eng.Contains(vset.New(0, 1, 2, 10, 11)), eng.Contains(vset.New(40, 41, 42)))
	}
	before := eng.Stats()
	cycle := func() {
		eng.Process(core.Update{A: 0, B: 1, Delta: 1e-9})
		eng.Process(core.Update{A: 20, B: 21, Delta: 1e-9})
		eng.Process(core.Update{A: 0, B: 1, Delta: -1e-9})
		eng.Process(core.Update{A: 20, B: 21, Delta: -1e-9})
		eng.Process(core.Update{A: 40, B: 41, Delta: 0.125})
		eng.Process(core.Update{A: 40, B: 41, Delta: -0.125})
	}
	assertZeroAllocs(t, "star scan", cycle)
	after := eng.Stats()
	explored := (after.Explorations + after.ExploreCertified) - (before.Explorations + before.ExploreCertified)
	if explored == 0 || after.CheapExplores == before.CheapExplores {
		t.Fatalf("the cycle ran no exploration (%d) or no family check (%d)", explored, after.CheapExplores-before.CheapExplores)
	}
	if after.Insertions != before.Insertions || after.Evictions != before.Evictions || after.Events != before.Events {
		t.Fatalf("the cycle is not steady: %+v → %+v", before, after)
	}
	if after.StarInsertions() == before.StarInsertions() || after.IndexedStars != 1 {
		t.Fatalf("the cycle created %d families and ends with %d, want some and 1", after.StarInsertions()-before.StarInsertions(), after.IndexedStars)
	}
	if msg := eng.ValidateIndex(); msg != "" {
		t.Fatal(msg)
	}
}

// TestCertifiedExploreSteadyStateZeroAlloc pins the path a planted story
// spends its life on: a 4-clique held well above T among light background
// edges, every subset of it indexed, its internal weights nudged up and down.
// Each nudge explores around every indexed subset containing the pair; after
// the first cycle each of them holds a reach certificate below its deficit —
// its heavy neighbours' children are indexed and the background is far too
// light — so the measured cycles settle every exploration without a scan, and
// allocate nothing.
func TestCertifiedExploreSteadyStateZeroAlloc(t *testing.T) {
	eng := core.MustNew(core.Config{T: 3, Nmax: 5})
	eng.SetSink(&core.CountingSink{})
	clique := []core.Vertex{0, 1, 2, 3}
	for i := 0; i < 40; i++ { // background: into the clique and beside it
		eng.Process(core.Update{A: clique[i%4], B: core.Vertex(100 + i), Delta: 0.05})
		eng.Process(core.Update{A: core.Vertex(100 + i), B: core.Vertex(101 + i), Delta: 0.1})
	}
	for i, a := range clique {
		for _, b := range clique[i+1:] {
			eng.Process(core.Update{A: a, B: b, Delta: 4})
		}
	}
	if !eng.Contains(vset.New(clique...)) || eng.DenseCount() != 11 {
		t.Fatalf("setup: clique indexed %v, %d dense subgraphs (want its 11 subsets)", eng.Contains(vset.New(clique...)), eng.DenseCount())
	}
	cycle := func() {
		for _, d := range []float64{1e-9, -1e-9} {
			for i, a := range clique {
				for _, b := range clique[i+1:] {
					eng.Process(core.Update{A: a, B: b, Delta: d})
				}
			}
		}
	}
	cycle() // the one scan per subset that derives its certificate
	before := eng.Stats()
	assertZeroAllocs(t, "certified explore", cycle)
	after := eng.Stats()
	if after.ExploreCertified == before.ExploreCertified || after.Explorations != before.Explorations {
		t.Fatalf("the cycle settled %d explorations by certificate and scanned for %d, want some and none",
			after.ExploreCertified-before.ExploreCertified, after.Explorations-before.Explorations)
	}
	if after.Insertions != before.Insertions || after.Evictions != before.Evictions || after.Events != before.Events {
		t.Fatalf("the cycle is not steady: %+v → %+v", before, after)
	}
	if msg := eng.ValidateCertificates(); msg != "" {
		t.Fatal(msg)
	}
}

// TestInStoryUpdateZeroAlloc pins the two walks an update between members of a
// live story runs (core.InStoryEngine): the positive one takes the paired
// snapshot — nodes and partners, both into engine-owned buffers — and settles
// every cheap-exploration on the partner's dense flag without building a set;
// the negative one visits only the subsets holding both endpoints and builds
// no set either. Neither allocates.
func TestInStoryUpdateZeroAlloc(t *testing.T) {
	eng, pairs := core.InStoryEngine(t, 300)
	sweep := func(delta float64) func() {
		return func() {
			for _, u := range pairs {
				u.Delta = delta
				eng.Process(u)
			}
		}
	}
	sweep(1e-9)() // first-touch buffer growth and the certificate scans
	sweep(-1e-9)()
	before := eng.Stats()
	assertZeroAllocs(t, "in-story positive", sweep(1e-9))
	mid := eng.Stats()
	assertZeroAllocs(t, "in-story negative", sweep(-1e-9))
	after := eng.Stats()
	if cheap, indexed := mid.CheapExplores-before.CheapExplores, mid.CheapIndexed-before.CheapIndexed; indexed == 0 || indexed != cheap {
		t.Fatalf("the positive sweeps made %d cheap-explorations of which %d found the union indexed, want all of some", cheap, indexed)
	}
	if after.NegativeUpdates == mid.NegativeUpdates || after.CheapExplores != mid.CheapExplores {
		t.Fatalf("the negative sweeps applied %d negative updates and made %d cheap-explorations, want some and none",
			after.NegativeUpdates-mid.NegativeUpdates, after.CheapExplores-mid.CheapExplores)
	}
	if after.Insertions != before.Insertions || after.Evictions != before.Evictions || after.Events != before.Events {
		t.Fatalf("the sweeps are not steady: %+v → %+v", before, after)
	}
}

// TestDenseChurnSteadyStateZeroAlloc pins the churn of ordinary dense sets: a
// triangle with a fourth vertex held just below the dense floor of four, and a
// pair held just below the pair floor, each nudged over it and back, so every
// cycle inserts the 4-set's leaf and the pair's two nodes — one of them a root
// child — and evicts them again. The index hands each pruned node out again
// from the next update on, with its child vectors, so once the first cycle has
// stocked the free list a cycle allocates nothing.
func TestDenseChurnSteadyStateZeroAlloc(t *testing.T) {
	eng := core.MustNew(core.Config{T: 3, Nmax: 5})
	eng.SetSink(&core.CountingSink{})
	th := eng.Thresholds()
	// below returns a multiple of 1/64 under x by at least 1/32, so nudges of
	// ±1/4 cancel exactly and one of them crosses x.
	below := func(x float64) float64 { return math.Floor((x-1.0/32)*64) / 64 }
	for _, u := range []core.Update{
		{A: 50, B: 51, Delta: 3.5}, {A: 50, B: 52, Delta: 3.5}, {A: 51, B: 52, Delta: 3.5},
		{A: 80, B: 81, Delta: below(th.MinDenseScore(2))},
	} {
		eng.Process(u)
	}
	x := below((th.MinDenseScore(4) - 10.5) / 3) // 53's weight to each of the triangle
	for _, v := range []core.Vertex{50, 51, 52} {
		eng.Process(core.Update{A: v, B: 53, Delta: x})
	}
	quad := vset.New(50, 51, 52, 53)
	if !eng.Contains(vset.New(50, 51, 52)) || eng.Contains(quad) || eng.Contains(vset.New(80, 81)) || eng.ImplicitFamilyCount() != 0 {
		t.Fatalf("setup: want the triangle dense, %v and {80,81} not, no families; %d dense, %d families", quad, eng.DenseCount(), eng.ImplicitFamilyCount())
	}
	cycle := func() {
		eng.Process(core.Update{A: 50, B: 51, Delta: 0.25})
		eng.Process(core.Update{A: 80, B: 81, Delta: 0.25})
		eng.Process(core.Update{A: 50, B: 51, Delta: -0.25})
		eng.Process(core.Update{A: 80, B: 81, Delta: -0.25})
	}
	cycle()
	before := eng.Stats()
	assertZeroAllocs(t, "dense churn", cycle)
	after := eng.Stats()
	if runs := after.Insertions - before.Insertions; runs == 0 || after.Evictions-before.Evictions != runs {
		t.Fatalf("the cycles inserted %d and evicted %d sets, want some and as many", runs, after.Evictions-before.Evictions)
	}
	if eng.Contains(quad) || eng.Contains(vset.New(80, 81)) || eng.ImplicitFamilyCount() != 0 {
		t.Fatal("the cycles did not end where they started")
	}
	if msg := eng.ValidateIndex(); msg != "" {
		t.Fatal(msg)
	}
}

// TestOutputChurnZeroAllocWithoutSink pins reporting without a sink: a dense
// pair held just below the output floor is nudged over it and back, one
// update at a time and as batches, so each cycle reports it as Became and as
// Ceased twice. With a non-retaining sink the cycle allocates nothing. After
// SetSink(nil) the old sink hears nothing more, Stats.Events still counts
// every event, and the cycle still allocates nothing: an engine without a
// sink builds no event for anyone.
func TestOutputChurnZeroAllocWithoutSink(t *testing.T) {
	eng := core.MustNew(core.Config{T: 3, Nmax: 5, DeltaIt: 1}) // a pair is dense from T/2
	var counter core.CountingSink
	eng.SetSink(&counter)
	below := func(x float64) float64 { return math.Floor((x-1.0/32)*64) / 64 }
	eng.Process(core.Update{A: 90, B: 91, Delta: below(eng.Thresholds().MinOutputScore(2))})
	if !eng.Contains(vset.New(90, 91)) || eng.OutputDenseCount() != 0 {
		t.Fatalf("setup: want {90,91} dense and not output-dense; %d dense, %d output-dense", eng.DenseCount(), eng.OutputDenseCount())
	}
	up, down := []core.Update{{A: 90, B: 91, Delta: 0.25}}, []core.Update{{A: 90, B: 91, Delta: -0.25}}
	cycle := func() {
		eng.Process(up[0])
		eng.Process(down[0])
		eng.ProcessBatch(up)
		eng.ProcessBatch(down)
	}
	cycle()
	if counter.Became != 2 || counter.Ceased != 2 {
		t.Fatalf("a cycle reported %d became and %d ceased, want 2 and 2", counter.Became, counter.Ceased)
	}
	assertZeroAllocs(t, "output churn with a counting sink", cycle)

	eng.SetSink(nil)
	if eng.Sink() != nil {
		t.Fatalf("Sink() = %v after SetSink(nil), want nil", eng.Sink())
	}
	heard, before := counter.Total(), eng.Stats().Events
	cycle()
	if got := eng.Stats().Events - before; got != 4 {
		t.Fatalf("a cycle without a sink counted %d events, want 4", got)
	}
	assertZeroAllocs(t, "output churn without a sink", cycle)
	if counter.Total() != heard {
		t.Fatalf("the uninstalled sink heard %d more events", counter.Total()-heard)
	}
}
