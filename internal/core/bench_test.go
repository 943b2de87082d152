// Benchmarks for the Engine.Process hot path, driven by the seeded synthetic
// workload generator from internal/stream. They live in an external test
// package so they can use the ingestion layer without an import cycle.
//
// Run with: go test -bench=. -benchmem ./internal/core/
//
// Workload shape needs care. Edge weights only accumulate under a positive
// stream, so a fixed threshold is eventually crossed by an ever-growing hot
// core and the dense-subgraph count — combinatorial in the number of
// dense-eligible vertices — explodes. To keep the measured regime stationary,
// each benchmark replays a fixed bench stream against a warm engine and,
// whenever the stream is exhausted, rebuilds the warm engine off-timer. The
// warm phase (skew 1.1, 8000 unit-mean updates, T=100, Nmax=5) yields a
// realistic dense core of a few hundred indexed subgraphs.
package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/stream"
)

const (
	benchVertices = 500
	benchWarm     = 8000
	benchSkew     = 1.1
	benchStream   = 2048 // bench updates replayed per engine rebuild
)

func benchConfig() core.Config {
	return core.Config{T: 100, Nmax: 5}
}

// benchUpdates materialises n updates from a seeded generator.
func benchUpdates(b *testing.B, cfg stream.SynthConfig, n int) []core.Update {
	b.Helper()
	cfg.Updates = n
	updates, err := stream.Synthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return updates
}

// warmEngine builds an engine over a pre-populated graph so the benchmark
// loop measures steady-state behaviour rather than cold growth.
func warmEngine(b *testing.B, cfg core.Config, warm []core.Update) *core.Engine {
	b.Helper()
	eng := core.MustNew(cfg)
	eng.SetSink(&core.CountingSink{})
	for _, u := range warm {
		eng.Process(u)
	}
	return eng
}

// benchProcess runs the replay-and-rebuild loop over the bench stream.
func benchProcess(b *testing.B, cfg core.Config, warm, updates []core.Update) {
	eng := warmEngine(b, cfg, warm)
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		if i == len(updates) {
			b.StopTimer()
			eng = warmEngine(b, cfg, warm)
			i = 0
			b.StartTimer()
		}
		eng.Process(updates[i])
		i++
	}
}

// BenchmarkProcessPositive measures positive updates against the warm skewed
// graph — the path that triggers cheap-exploration and exploration.
func BenchmarkProcessPositive(b *testing.B) {
	warm := benchUpdates(b, stream.SynthConfig{Vertices: benchVertices, Seed: 1, Skew: benchSkew}, benchWarm)
	updates := benchUpdates(b, stream.SynthConfig{Vertices: benchVertices, Seed: 2, Skew: benchSkew}, benchStream)
	benchProcess(b, benchConfig(), warm, updates)
}

// BenchmarkProcessNegative measures negative updates against the warm graph —
// the score-decrement/eviction scan path. Decrements are small relative to
// the warm weights, so the dense core persists across the bench stream.
func BenchmarkProcessNegative(b *testing.B) {
	warm := benchUpdates(b, stream.SynthConfig{Vertices: benchVertices, Seed: 3, Skew: benchSkew}, benchWarm)
	updates := benchUpdates(b, stream.SynthConfig{
		Vertices: benchVertices, Seed: 4, Skew: benchSkew, NegativeFraction: 0.999, MeanDelta: 0.1,
	}, benchStream)
	benchProcess(b, benchConfig(), warm, updates)
}

// BenchmarkProcessMixed measures the realistic blend the CLI bench command
// replays: mostly positive with a decay fraction.
func BenchmarkProcessMixed(b *testing.B) {
	warm := benchUpdates(b, stream.SynthConfig{Vertices: benchVertices, Seed: 5, Skew: benchSkew}, benchWarm)
	updates := benchUpdates(b, stream.SynthConfig{
		Vertices: benchVertices, Seed: 6, Skew: benchSkew, NegativeFraction: 0.2,
	}, benchStream)
	benchProcess(b, benchConfig(), warm, updates)
}

// BenchmarkProcessStarHeavy measures the regime in which ImplicitTooDense
// upkeep dominates: a sliding window of exactly cancelled insertions, half of
// them inside 18 planted five-vertex groups whose triples go too-dense at
// T=3, half spread over a uniform background of 5000 vertices that supplies
// the hundreds of light edges every star-family check has to look past. The
// window keeps the stream stationary, so the 400k generated updates run
// against one warm engine (benchProcess rebuilds it if b.N outlasts them).
func BenchmarkProcessStarHeavy(b *testing.B) {
	const (
		groupLife = 10000 // insertions a planted group lives
		warmIns   = 2*groupLife + 2*core.StarHeavyWindow
		benchIns  = 200000
	)
	updates := core.StarHeavyUpdates(1, 5000, warmIns+benchIns)
	warm := 2*warmIns - core.StarHeavyWindow
	benchProcess(b, core.Config{T: 3, Nmax: 5}, updates[:warm], updates[warm:])
}

// BenchmarkProcessFamilyBackground measures a light background update beside
// F ImplicitTooDense families it cannot touch, for F = 16 and 256: F planted
// triples held too-dense (pairs at 6.25, score 18.75 of the 17.98 it takes
// at T=3) beside a ring of 1 000 background vertices joined by edges of 1/16.
// Each op raises one ring pair by 1/8 and lowers it again. No base holds an
// endpoint or a neighbour of one, and a triple's score plus the pair's weight
// is far below a dense five-vertex set, so the positive half's family pass
// counts F failed cheap-explorations without visiting the families:
// ns/op should not grow with F. attempts/op reports the count.
func BenchmarkProcessFamilyBackground(b *testing.B) {
	for _, families := range []int{16, 256} {
		b.Run(fmt.Sprintf("F=%d", families), func(b *testing.B) { benchFamilyBackground(b, families) })
	}
}

func benchFamilyBackground(b *testing.B, families int) {
	const background = 1000
	eng := core.MustNew(core.Config{T: 3, Nmax: 5})
	eng.SetSink(&core.CountingSink{})
	var setup []core.Update // weights in sixteenths cancel exactly
	for v := 0; v < background; v++ {
		setup = append(setup, core.Update{A: core.Vertex(v), B: core.Vertex((v + 1) % background), Delta: 1.0 / 16})
	}
	for f := 0; f < families; f++ {
		x := core.Vertex(background + 3*f)
		setup = append(setup,
			core.Update{A: x, B: x + 1, Delta: 6.25}, core.Update{A: x, B: x + 2, Delta: 6.25}, core.Update{A: x + 1, B: x + 2, Delta: 6.25})
	}
	for _, u := range setup {
		eng.Process(u)
	}
	if eng.ImplicitFamilyCount() != families {
		b.Fatalf("fixture: %d families, want %d", eng.ImplicitFamilyCount(), families)
	}
	rng := rand.New(rand.NewSource(1))
	op := func() {
		v := core.Vertex(rng.Intn(background))
		u := core.Update{A: v, B: (v + 1) % background, Delta: 1.0 / 8}
		eng.Process(u)
		u.Delta = -u.Delta
		eng.Process(u)
	}
	before := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
	b.StopTimer()
	after := eng.Stats()
	if after.Insertions != before.Insertions || after.Evictions != before.Evictions || after.Events != before.Events {
		b.Fatalf("the ops are not steady: %+v → %+v", before, after)
	}
	b.ReportMetric(float64(after.CheapExplores-before.CheapExplores)/float64(b.N), "attempts/op")
}

// BenchmarkProcessPlantedSteady measures the life of a planted story, the
// regime of the docs workloads: ten five-vertex cliques held at 1.3·T, every
// subset of them indexed, over 2000 background vertices that put light edges
// into them and between each other. Each op moves one pair up and back down —
// two in three a pair inside a clique, the rest a light edge from the
// background into one — so the stream is stationary and nothing is admitted
// or evicted. Around a clique every heavy neighbour's child is indexed and the
// background is an order of magnitude below any deficit, so the explorations
// of the positive half are settled by the subgraphs' reach certificates
// instead of neighbourhood scans; certified/op reports how many.
func BenchmarkProcessPlantedSteady(b *testing.B) {
	const (
		T          = 3.0
		cliques    = 10
		cliqueSize = 5
		background = 2000
	)
	member := func(g, i int) core.Vertex { return core.Vertex(background + g*cliqueSize + i) }
	eng := core.MustNew(core.Config{T: T, Nmax: 5})
	eng.SetSink(&core.CountingSink{})
	var setup []core.Update // weights in eighths and sixteenths cancel exactly
	for x := 0; x < background; x++ {
		setup = append(setup,
			core.Update{A: core.Vertex(x), B: core.Vertex((7*x + 1) % background), Delta: 1.0 / 16},
			core.Update{A: core.Vertex(x), B: member(x%cliques, x/cliques%cliqueSize), Delta: 1.0 / 16})
	}
	for g := 0; g < cliques; g++ {
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				setup = append(setup, core.Update{A: member(g, i), B: member(g, j), Delta: 31.0 / 8})
			}
		}
	}
	for _, u := range setup {
		eng.Process(u)
	}
	if want := cliques * 26; eng.DenseCount() != want || eng.ImplicitFamilyCount() != 0 {
		b.Fatalf("fixture: %d dense subgraphs and %d families, want the %d subsets of the cliques and none", eng.DenseCount(), eng.ImplicitFamilyCount(), want)
	}
	rng := rand.New(rand.NewSource(1))
	op := func() {
		g, i := rng.Intn(cliques), rng.Intn(cliqueSize)
		u := core.Update{A: member(g, i), B: member(g, (i+1+rng.Intn(cliqueSize-1))%cliqueSize), Delta: 1.0 / 8}
		if rng.Intn(3) == 0 {
			u.B, u.Delta = core.Vertex(rng.Intn(background)), 1.0/16
		}
		eng.Process(u)
		u.Delta = -u.Delta
		eng.Process(u)
	}
	for i := 0; i < 1000; i++ {
		op() // the scans that derive the certificates
	}
	before := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
	b.StopTimer()
	after := eng.Stats()
	if after.Insertions != before.Insertions || after.Evictions != before.Evictions {
		b.Fatalf("the ops are not steady: %+v → %+v", before, after)
	}
	if after.Explorations != before.Explorations {
		b.Fatalf("%d explorations scanned a neighbourhood; the certificates should settle them all", after.Explorations-before.Explorations)
	}
	b.ReportMetric(float64(after.ExploreCertified-before.ExploreCertified)/float64(b.N), "certified/op")
}

// BenchmarkProcessInStory measures an update between two members of a live
// story (core.InStoryEngine over 300 background vertices): each op raises one
// member pair and lowers it again, so the positive half snapshots the 48
// subsets holding either endpoint with their partners and cheap-explores the
// 30 that hold one — 28 unions already indexed, two past Nmax — and the
// negative half walks the 18 that hold both. Nothing is admitted or evicted;
// indexed/op reports the cheap-explorations that ended at an indexed union.
func BenchmarkProcessInStory(b *testing.B) { benchInStory(b, 300) }

// BenchmarkProcessInStoryWide is BenchmarkProcessInStory over 2000 background
// vertices, ≈ 333 light neighbours per member as in the docs workloads: what
// an update costs when every attempt ends at an O(1) exit, so the endpoints'
// wide neighbourhoods are never scanned.
func BenchmarkProcessInStoryWide(b *testing.B) { benchInStory(b, 2000) }

func benchInStory(b *testing.B, background int) {
	eng, pairs := core.InStoryEngine(b, background)
	op := func(n int) {
		u := pairs[n%len(pairs)]
		u.Delta = 1.0 / 8
		eng.Process(u)
		u.Delta = -u.Delta
		eng.Process(u)
	}
	for n := 0; n < 4*len(pairs); n++ {
		op(n) // the scans that derive the certificates
	}
	before := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op(n)
	}
	b.StopTimer()
	after := eng.Stats()
	if after.Insertions != before.Insertions || after.Evictions != before.Evictions {
		b.Fatalf("the ops are not steady: %+v → %+v", before, after)
	}
	b.ReportMetric(float64(after.CheapIndexed-before.CheapIndexed)/float64(b.N), "indexed/op")
}

// BenchmarkProcessBatchDoc measures a plain batch the size of one document's
// co-occurrence deltas, the unit `stories run -batch` hands the engine: each
// op applies one document — four members of the live story of
// core.InStoryEngine (2000 background vertices) and two background entities,
// every one of its 15 pairs raised by 1/16 — as one ProcessBatch, and takes
// it back with a second. The documents rotate over sixteen member and
// background choices; nothing is admitted or evicted, and an op that
// allocates fails the benchmark.
func BenchmarkProcessBatchDoc(b *testing.B) {
	const background, storySize = 2000, 6
	eng, _ := core.InStoryEngine(b, background)
	member := func(i int) core.Vertex { return core.Vertex(background + i%storySize) }
	var docs [16][2][]core.Update // per document: the raising batch and the one taking it back
	for d := range docs {
		ents := []core.Vertex{member(d), member(d + 1), member(d + 2), member(d + 3),
			core.Vertex(37 * d % background), core.Vertex((37*d + 11) % background)}
		for i, a := range ents {
			for _, c := range ents[i+1:] {
				docs[d][0] = append(docs[d][0], core.Update{A: a, B: c, Delta: 1.0 / 16})
				docs[d][1] = append(docs[d][1], core.Update{A: a, B: c, Delta: -1.0 / 16})
			}
		}
	}
	op := func(n int) {
		doc := &docs[n%len(docs)]
		eng.ProcessBatch(doc[0])
		eng.ProcessBatch(doc[1])
	}
	for n := 0; n < 4*len(docs); n++ {
		op(n) // first-touch buffer growth and the scans that derive the certificates
	}
	n := 0
	if allocs := testing.AllocsPerRun(len(docs), func() { op(n); n++ }); allocs != 0 {
		b.Fatalf("a steady-state document batch performed %v allocs/op, want 0", allocs)
	}
	before := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op(n)
	}
	b.StopTimer()
	after := eng.Stats()
	if after.Insertions != before.Insertions || after.Evictions != before.Evictions {
		b.Fatalf("the ops are not steady: %+v → %+v", before, after)
	}
	b.ReportMetric(float64(after.BatchPairs-before.BatchPairs)/float64(b.N), "pairs/op")
}

// BenchmarkThresholdTick measures the decay epoch of the rescaled pipeline
// (ProcessThresholdBatch) the way docs-decay meets it: an index of a few
// hundred subgraphs — every subset of twelve planted five-vertex groups whose
// pairs weigh 1.2·T to 1.75·T — over a background of light pairs. Every op
// fades the graph by 3 %, so the threshold walk classifies each indexed
// subgraph, and retires four background pairs, as the expiry queue does. Over
// the eight epochs it takes the scale to reach the floor the two lightest
// groups fall out of the output and then out of the index, a handful of
// subgraphs per tick. Fading alone would drain the index, so at the floor
// the engine is renormalised off the clock: the retired pairs come back and
// the scale returns to 1, whose falling-threshold walk rediscovers what the
// epochs evicted.
func BenchmarkThresholdTick(b *testing.B) {
	const (
		T          = 3.0
		step       = 0.97
		floor      = 0.78 // 0.97⁸ is the last scale above it
		retire     = 4
		groups     = 12
		groupSize  = 5
		background = 1000
	)
	eng := core.MustNew(core.Config{T: T, Nmax: 5})
	eng.SetSink(&core.CountingSink{})
	var light []core.Update
	for i := 0; i < 2*background; i++ {
		light = append(light, core.Update{A: core.Vertex(i % background), B: core.Vertex((i*7 + 1 + i/background) % background), Delta: T / 128})
	}
	eng.ProcessBatch(light)
	for g := 0; g < groups; g++ {
		var plant []core.Update
		for i := 0; i < groupSize; i++ {
			for j := i + 1; j < groupSize; j++ {
				base := core.Vertex(background + g*groupSize)
				plant = append(plant, core.Update{A: base + core.Vertex(i), B: base + core.Vertex(j), Delta: T * (1.2 + 0.05*float64(g))})
			}
		}
		eng.ProcessBatch(plant)
	}
	warmCount := eng.DenseCount()
	if warmCount < 200 {
		b.Fatalf("fixture too small: %d dense subgraphs", warmCount)
	}
	period := 0
	for s := step; s >= floor; s *= step {
		period++
	}
	restore := light[:period*retire]
	retired := make([]core.Update, len(restore))
	for i, u := range restore {
		retired[i] = core.Update{A: u.A, B: u.B, Delta: -u.Delta}
	}
	b.ReportAllocs()
	b.ResetTimer()
	scale, k := 1.0, 0
	for n := 0; n < b.N; n++ {
		if k == len(retired) {
			b.StopTimer()
			if evicted := warmCount - eng.DenseCount(); evicted < 26 || evicted > warmCount/4 {
				b.Fatalf("a period evicted %d of %d subgraphs; the walk should move a narrow band", evicted, warmCount)
			}
			eng.ProcessThresholdBatch(1, restore)
			if eng.DenseCount() != warmCount {
				b.Fatalf("renormalisation restored %d of %d subgraphs", eng.DenseCount(), warmCount)
			}
			scale, k = 1, 0
			b.StartTimer()
		}
		scale *= step
		eng.ProcessThresholdBatch(scale, retired[k:k+retire])
		k += retire
	}
}

// BenchmarkThresholdTickRetire measures the epoch of a fading stream whose
// background churns: an index of 1 040 subgraphs — every subset of forty
// planted five-vertex groups at 1.3·T — over a ring of 1 000 light resident
// vertices. Each op is four documents that bring four transient entities in,
// each with a light pair into the ring and one into a group, and the next
// epoch's tick that moves the threshold a hair and retires those eight
// pairs, so the entities leave the graph again. No subgraph crosses a bound;
// the tick's cost is the threshold walk and the repair of the subgraphs that
// hold both endpoints of a retired pair.
func BenchmarkThresholdTickRetire(b *testing.B) {
	const (
		T         = 3.0
		groups    = 40
		groupSize = 5
		residents = 1000
		entities  = 4
	)
	member := func(g, i int) core.Vertex { return core.Vertex(residents + g*groupSize + i) }
	eng := core.MustNew(core.Config{T: T, Nmax: 5})
	eng.SetSink(&core.CountingSink{})
	var setup []core.Update // weights in eighths and sixteenths cancel exactly
	for v := 0; v < residents; v++ {
		setup = append(setup, core.Update{A: core.Vertex(v), B: core.Vertex((v + 1) % residents), Delta: 1.0 / 16})
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < groupSize; i++ {
			for j := i + 1; j < groupSize; j++ {
				setup = append(setup, core.Update{A: member(g, i), B: member(g, j), Delta: 31.0 / 8})
			}
		}
	}
	eng.ProcessBatch(setup)
	if want := groups * 26; eng.DenseCount() != want {
		b.Fatalf("fixture: %d dense subgraphs, want the groups' %d subsets", eng.DenseCount(), want)
	}
	// Op n brings in entities from a rotating range of 64 IDs.
	born := make([][]core.Update, 16)
	retired := make([][]core.Update, len(born))
	for k := range born {
		for e := 0; e < entities; e++ {
			x := core.Vertex(100000 + k*entities + e)
			n := k*entities + e
			born[k] = append(born[k],
				core.Update{A: x, B: core.Vertex(n * 13 % residents), Delta: 1.0 / 16},
				core.Update{A: x, B: member(n%groups, n%groupSize), Delta: 1.0 / 16})
		}
		for _, u := range born[k] {
			retired[k] = append(retired[k], core.Update{A: u.A, B: u.B, Delta: -u.Delta})
		}
	}
	scale := 1.0
	op := func(n int) {
		for doc := range slices.Chunk(born[n%len(born)], 2) { // one document per entity
			eng.ProcessBatch(doc)
		}
		scale *= 1 - 1e-9
		eng.ProcessThresholdBatch(scale, retired[n%len(born)])
	}
	for n := 0; n < len(born); n++ {
		op(n)
	}
	before := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op(n)
	}
	b.StopTimer()
	after := eng.Stats()
	if after.Insertions != before.Insertions || after.Evictions != before.Evictions || after.Events != before.Events {
		b.Fatalf("the ops are not steady: %+v → %+v", before, after)
	}
	if eng.Graph().NumVertices() != residents+groups*groupSize {
		b.Fatalf("%d vertices in the graph; the entities did not leave", eng.Graph().NumVertices())
	}
}

// BenchmarkReplayPipeline measures the full source → replay → engine → sink
// pipeline, including generation, as the end-to-end per-update overhead. The
// workload is uniform with a threshold the accumulated weights stay far
// below, so the index remains sparse and the number reflects ingestion cost
// rather than exploration cost. Like the Process benchmarks, the pipeline is
// rebuilt off-timer after a bounded number of updates so that long
// -benchtime runs cannot drift the accumulated weights across the threshold.
func BenchmarkReplayPipeline(b *testing.B) {
	const rebuildEvery = 1 << 16 // uniform weights stay ≪ T within a cycle
	b.ReportAllocs()
	for done := 0; done < b.N; done += rebuildEvery {
		b.StopTimer()
		src := stream.NewSliceSource(stream.MustSynthetic(stream.SynthConfig{Vertices: benchVertices, Updates: min(rebuildEvery, b.N-done), Seed: 7, NegativeFraction: 0.1}), 1024)
		eng := core.MustNew(core.Config{T: 25, Nmax: 5})
		r := stream.NewReplay(src, eng, &core.CountingSink{})
		b.StartTimer()
		if _, err := r.RunBatches(1024, false); err != nil {
			b.Fatal(err)
		}
	}
}
