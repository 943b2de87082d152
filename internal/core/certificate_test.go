package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// plantedRun drives one engine through a random walk over its whole stateful
// surface in the regime reach certificates are made for: three overlapping
// planted cliques on 14 vertices whose internal pairs keep gaining weight
// while the threshold keeps rising under them, light noise everywhere, and
// the occasional heavy edge out of a clique or negative update that breaks a
// certificate. Deltas are drawn relative to the threshold in force, so the
// regime holds however far decay has inflated the normalised units.
type plantedRun struct {
	rng   *rand.Rand
	e     *Engine
	scale float64 // cumulative decay scale handed to ProcessThresholdBatch
	// work done by engines this run has since replaced through a restore
	certified, scanned uint64
}

var plantedCliques = [3][]Vertex{{0, 1, 2, 3, 4}, {3, 4, 5, 6, 7, 8}, {8, 9, 10, 11, 12}}

const plantedVertices = 14

func (r *plantedRun) pick() Update {
	t := r.e.Config().T
	clique := plantedCliques[r.rng.Intn(len(plantedCliques))]
	i, j := r.rng.Intn(len(clique)), r.rng.Intn(len(clique)-1)
	if j >= i {
		j++
	}
	inside := Update{A: clique[i], B: clique[j]}
	switch k := r.rng.Intn(10); {
	case k < 6: // inside a clique
		inside.Delta = (0.2 + 0.5*r.rng.Float64()) * t
		return inside
	case k < 8: // light noise, anywhere
		a, b := Vertex(r.rng.Intn(plantedVertices)), Vertex(r.rng.Intn(plantedVertices-1))
		if b >= a {
			b++
		}
		return Update{A: a, B: b, Delta: (0.01 + 0.08*r.rng.Float64()) * t}
	case k < 9: // heavy, out of the clique
		for {
			if b := Vertex(r.rng.Intn(plantedVertices)); !slices.Contains(clique, b) {
				return Update{A: clique[i], B: b, Delta: (0.4 + 0.8*r.rng.Float64()) * t}
			}
		}
	default: // negative, inside a clique
		inside.Delta = -(0.2 + 0.8*r.rng.Float64()) * t
		return inside
	}
}

// step applies one random unit and returns its description.
func (r *plantedRun) step(t *testing.T) string {
	switch k := r.rng.Intn(41); {
	case k < 24:
		u := r.pick()
		r.e.Process(u)
		return fmt.Sprintf("Process %v", u)
	case k < 34:
		batch := make([]Update, 1+r.rng.Intn(6))
		for i := range batch {
			batch[i] = r.pick()
		}
		r.e.ProcessBatch(batch)
		return fmt.Sprintf("ProcessBatch %v", batch)
	case k < 37:
		r.scale *= 0.93
		var retire []Update
		for i := r.rng.Intn(3); i > 0; i-- {
			u := r.pick()
			u.Delta = -r.e.Graph().Weight(u.A, u.B)
			retire = append(retire, u)
		}
		r.e.ProcessThresholdBatch(r.scale, retire)
		return fmt.Sprintf("ProcessThresholdBatch %v %v", r.scale, retire)
	case k < 38:
		if _, err := r.e.SetThreshold(r.e.Config().T * 1.1); err != nil {
			t.Fatal(err)
		}
		return "SetThreshold ×1.1"
	case k < 39:
		if _, err := r.e.SetThreshold(r.e.Config().T * 0.9); err != nil {
			t.Fatal(err)
		}
		return "SetThreshold ×0.9"
	default:
		// Snapshot and restore into a fresh engine, built the way recovery
		// builds it: from the real-unit threshold. It starts without
		// certificates and must carry on exactly where the old one stopped.
		cfg := r.e.Config()
		fresh := MustNew(Config{T: cfg.T * r.e.DecayScale(), Nmax: cfg.Nmax})
		if err := fresh.ImportState(r.e.Graph().ExportState(), r.e.ExportState()); err != nil {
			t.Fatal(err)
		}
		r.certified += r.e.stats.ExploreCertified
		r.scanned += r.e.stats.Explorations
		r.e = fresh
		return "restore"
	}
}

// TestPlantedStatefulCertificates checks after every step of such walks that
// the index is valid, that every reach certificate still bounds what the
// graph holds, and that skipping scans on the certificates' word loses
// nothing against brute.EnumerateAll.
func TestPlantedStatefulCertificates(t *testing.T) {
	const steps = 300
	var certified, scanned uint64
	for seed := int64(1); seed <= 12; seed++ {
		r := &plantedRun{rng: rand.New(rand.NewSource(seed)), e: MustNew(Config{T: 1, Nmax: 4}), scale: 1}
		for i := 0; i < steps; i++ {
			checkAgainstBrute(t, r.e, fmt.Sprintf("seed %d step %d: %s", seed, i, r.step(t)))
		}
		certified += r.certified + r.e.stats.ExploreCertified
		scanned += r.scanned + r.e.stats.Explorations
	}
	t.Logf("%d explorations settled by certificate, %d scanned", certified, scanned)
	if certified == 0 {
		t.Fatal("no exploration was settled by a certificate; the walk does not exercise them")
	}
}

// certifiedTriple returns an engine holding the triple {0,1,2} at pair weight
// 1.5 (T=1, Nmax=4: dense, not too-dense) with nothing else in the graph, so
// the scans that admitted it left every subset of it a certificate of reach 0.
func certifiedTriple(t *testing.T) *Engine {
	t.Helper()
	e := MustNew(Config{T: 1, Nmax: 4})
	for _, u := range []Update{{A: 0, B: 1, Delta: 1.5}, {A: 0, B: 2, Delta: 1.5}, {A: 1, B: 2, Delta: 1.5}} {
		e.Process(u)
	}
	if n := e.ix.LookupDense([]Vertex{0, 1, 2}); n == nil || n.Reach() != 0 {
		t.Fatalf("setup: {0,1,2} indexed with reach 0: %v", n)
	}
	return e
}

// TestBatchRaisedPairDropsCertificate pins the batch choke point. Every delta
// of a batch is in the graph before its first discovery pass, so when the pass
// of pair {0,1} explores around {0,1,2}, the weight pair {0,9} added next to
// it is already there and no cheap-exploration has accounted for it yet:
// batchRepair must have dropped the certificates, and the explorations scan.
func TestBatchRaisedPairDropsCertificate(t *testing.T) {
	e := certifiedTriple(t)
	before := e.Stats()
	e.ProcessBatch([]Update{{A: 0, B: 1, Delta: 1e-9}, {A: 0, B: 9, Delta: 0.3}})
	after := e.Stats()
	if after.ExploreCertified != before.ExploreCertified || after.Explorations == before.Explorations {
		t.Fatalf("the batch settled %d explorations by certificate and scanned for %d, want none and some",
			after.ExploreCertified-before.ExploreCertified, after.Explorations-before.Explorations)
	}
	checkAgainstBrute(t, e, "after the batch")
}

// TestCheapExploreIndexedUnionKeepsCertificate pins the cheap-exploration
// exit that keeps a certificate: {1,2} at 3.5 carries the triples {0,1,2} and
// {1,2,3} and the quadruple {0,1,2,3}, and every other pair weighs at most
// 0.625. The cross update {0,3} raises the weight vertex 3 puts into
// {0,1,2}, but the union {0,1,2,3} is indexed, so the attempt ends there,
// counted as CheapIndexed, and the certificate of reach 0 stays: vertex 3's
// child is indexed, and the certificate need not cover it.
func TestCheapExploreIndexedUnionKeepsCertificate(t *testing.T) {
	e := MustNew(Config{T: 1, Nmax: 4})
	for _, u := range []Update{
		{A: 0, B: 1, Delta: 0.625}, {A: 0, B: 2, Delta: 0.625}, {A: 1, B: 3, Delta: 0.625},
		{A: 2, B: 3, Delta: 0.625}, {A: 0, B: 3, Delta: 0.5}, {A: 1, B: 2, Delta: 3.5},
	} {
		e.Process(u)
	}
	node := e.ix.LookupDense([]Vertex{0, 1, 2})
	if node == nil || node.Reach() != 0 || !e.Contains([]Vertex{0, 1, 2, 3}) {
		t.Fatalf("setup: want {0,1,2} certified with reach 0 and {0,1,2,3} indexed: %v, index holds %v", node, e.Dense())
	}
	before := e.Stats()
	e.Process(Update{A: 0, B: 3, Delta: 1.0 / 256})
	if indexed := e.Stats().CheapIndexed - before.CheapIndexed; indexed != 2 {
		t.Fatalf("%d cheap-explorations ended at an indexed union, want 2 ({0,1,2} and {1,2,3})", indexed)
	}
	if node.Reach() != 0 {
		t.Fatalf("{0,1,2}'s certificate went from 0 to %v", node.Reach())
	}
	checkValid(t, e, "after the indexed cheap-exploration")
}

// InStoryEngine returns a warm engine holding one planted six-entity story —
// every pair at 1.3·T, Nmax 5, so its 56 subsets of two to five members are
// all indexed — among background vertices that put light edges into it and
// between each other, and the story's 15 member pairs. An update of a member
// pair (a, b) meets every indexed subset holding a, b or both, and the union
// of each one-endpoint subset with the other endpoint is indexed already
// unless it would have six members: the in-story regime of the docs workloads.
// It is exported to the package's external benchmarks.
func InStoryEngine(tb testing.TB, background int) (*Engine, []Update) {
	tb.Helper()
	const (
		T         = 3.0
		storySize = 6
	)
	member := func(i int) Vertex { return Vertex(background + i) }
	eng := MustNew(Config{T: T, Nmax: 5})
	eng.SetSink(&CountingSink{})
	for x := 0; x < background; x++ { // sixteenths and eighths cancel exactly
		eng.Process(Update{A: Vertex(x), B: Vertex((7*x + 1) % background), Delta: 1.0 / 16})
		eng.Process(Update{A: Vertex(x), B: member(x % storySize), Delta: 1.0 / 16})
	}
	var pairs []Update
	for i := 0; i < storySize; i++ {
		for j := i + 1; j < storySize; j++ {
			pairs = append(pairs, Update{A: member(i), B: member(j)})
			eng.Process(Update{A: member(i), B: member(j), Delta: 31.0 / 8})
		}
	}
	if eng.DenseCount() != 56 || eng.ImplicitFamilyCount() != 0 {
		tb.Fatalf("fixture: %d dense subgraphs and %d families, want the story's 56 subsets and none", eng.DenseCount(), eng.ImplicitFamilyCount())
	}
	return eng, pairs
}

// TestInStoryUpdateScansNothing pins the in-story regime's O(1) exits. Once a
// round of scans has left every subset of a story in a wide background its
// certificate, a member-pair update settles each cheap-exploration at an
// indexed union (or the Nmax gate) and each exploration by a certificate, so
// it never scans the ≈ 333 neighbours of either endpoint.
func TestInStoryUpdateScansNothing(t *testing.T) {
	e, pairs := InStoryEngine(t, 2000)
	for round := 0; round < 2; round++ { // round 0: the scans that derive the certificates
		for _, u := range pairs {
			before := e.Stats()
			u.Delta = 1.0 / 8
			e.Process(u)
			after := e.Stats()
			if round > 0 && (after.Explorations != before.Explorations || after.ExploreCertified == before.ExploreCertified ||
				after.CheapIndexed-before.CheapIndexed != after.CheapExplores-before.CheapExplores || after.CheapIndexed == before.CheapIndexed) {
				t.Fatalf("update %v: want every union indexed and every exploration certified: %+v → %+v", u, before, after)
			}
			u.Delta = -u.Delta
			e.Process(u)
		}
	}
	checkValid(t, e, "after the in-story updates")
}
