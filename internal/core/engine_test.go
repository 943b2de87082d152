package core

import (
	"maps"
	"slices"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/vset"
)

// oracleParams returns the brute-force parameters of e's configuration over
// the vertex universe u. The graph's own vertices are always in it, so a nil
// u is the whole universe of a test none of whose edges ever goes.
func oracleParams(e *Engine, u []Vertex) brute.Params {
	cfg := e.Config()
	return brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax, Universe: u}
}

// expandedKeys returns the engine's expanded output-dense set over the vertex
// universe u as sorted keys.
func expandedKeys(e *Engine, u []Vertex) []string {
	return brute.OutputDenseExpanded(e, oracleParams(e, u))
}

// oracleKeys returns brute.EnumerateAll's output-dense set over the vertex
// universe u as sorted keys.
func oracleKeys(e *Engine, u []Vertex) []string {
	return brute.Keys(brute.EnumerateAll(e.Graph(), oracleParams(e, u)))
}

// universe is the vertex universe of a test's oracle checks: the union of
// brute.UniverseOf over the units it has applied, kept as it applies them.
type universe map[Vertex]bool

func (u universe) add(ups ...Update) {
	for _, v := range brute.UniverseOf(ups) {
		u[v] = true
	}
}

func (u universe) vertices() []Vertex { return slices.Sorted(maps.Keys(u)) }

// collect runs f with a CollectorSink installed on e and returns the events it
// emitted; e's own sink is back in place afterwards.
func collect(e *Engine, f func()) []Event {
	prev := e.Sink()
	var c CollectorSink
	e.SetSink(&c)
	f()
	e.SetSink(prev)
	return c.Take()
}

// TestNewStarDiscoversEdgeMembers is the regression test for the family-
// creation discovery hole: when one large update makes a subgraph too-dense,
// the newly implicit members include sets formed by absorbing a whole edge
// not incident on the base ({2,4}∪{7,9} below). Those must be admitted
// explicitly at creation time — exploreStarMembers only covers families that
// existed before the update began.
func TestNewStarDiscoversEdgeMembers(t *testing.T) {
	e := MustNew(Config{T: 2, Nmax: 4})
	e.Process(Update{A: 7, B: 9, Delta: 2.5})
	// One large update pushes the pair {2,4} straight past too-dense.
	e.Process(Update{A: 2, B: 4, Delta: 12})

	if !e.Contains(vset.New(2, 4, 7, 9)) {
		t.Fatal("{2,4,7,9} not explicitly indexed after {2,4} became too-dense")
	}
	if got, want := expandedKeys(e, nil), oracleKeys(e, nil); !slices.Equal(got, want) {
		t.Fatalf("expanded output-dense set %v != oracle %v", got, want)
	}
	if msg := e.ValidateIndex(); msg != "" {
		t.Fatalf("index invalid: %s", msg)
	}
}

// TestStarExpansionCoversDeepAndIsolatedMembers covers the other two facets
// of the same hole: a too-dense base's family stands for any number of
// mutually disconnected additions (not just one), and the vertex universe for
// those additions is every vertex the stream has brought — including
// vertices whose edges have since decayed to zero. The graph forgets such a
// vertex with its last edge; the universe is the caller's, and with the
// vertex in it the expansion and brute.EnumerateAll still both hold C∪{y}.
func TestStarExpansionCoversDeepAndIsolatedMembers(t *testing.T) {
	e := MustNew(Config{T: 2, Nmax: 4})
	// Vertices 5 and 6 enter the universe, then their only edge decays away.
	updates := []Update{{A: 5, B: 6, Delta: 0.5}, {A: 5, B: 6, Delta: -0.5}}
	for _, u := range updates {
		e.Process(u)
	}
	if vs, _ := e.Graph().Neighborhood(5); e.Graph().NumVertices() != 0 || len(vs) != 0 {
		t.Fatalf("the graph keeps %d vertices and {5}'s neighbourhood %v after {5,6} decayed to zero", e.Graph().NumVertices(), vs)
	}
	// {2,4} becomes too-dense enough that even 4-sets built on it are dense.
	updates = append(updates, Update{A: 2, B: 4, Delta: 12})
	e.Process(updates[2])

	u := brute.UniverseOf(updates)
	keys, oracle := expandedKeys(e, u), oracleKeys(e, u)
	for _, want := range []string{"2,4,5", "2,4,6", "2,4,5,6"} {
		if !slices.Contains(keys, want) || !slices.Contains(oracle, want) {
			t.Errorf("%s (isolated/deep family member) missing: expanded %v, oracle %v", want, keys, oracle)
		}
	}
	if !slices.Equal(keys, oracle) {
		t.Fatalf("expanded output-dense set %v != oracle %v", keys, oracle)
	}
	// Without the decayed vertices in the universe, neither side has them.
	if keys, oracle := expandedKeys(e, nil), oracleKeys(e, nil); slices.Contains(keys, "2,4,5") || !slices.Equal(keys, oracle) {
		t.Fatalf("over the graph's own vertices: expanded %v, oracle %v", keys, oracle)
	}
}

// TestThresholdDecreaseCreatesStarWithEdgeMembers checks the same discovery
// obligation on a threshold unit's path: lowering T can make an indexed
// subgraph too-dense under the new schedule, and the edge-absorption members
// owed at family creation must be admitted there as well.
func TestThresholdDecreaseCreatesStarWithEdgeMembers(t *testing.T) {
	e := MustNew(Config{T: 6, Nmax: 4})
	e.Process(Update{A: 7, B: 9, Delta: 3})
	e.Process(Update{A: 2, B: 4, Delta: 12})
	if e.Contains(vset.New(2, 4, 7, 9)) {
		t.Fatal("fixture too weak: {2,4,7,9} already dense under T=6")
	}
	e.ProcessThresholdBatch(3, nil) // T from 6 to 2
	if !e.Contains(vset.New(2, 4, 7, 9)) {
		t.Fatal("{2,4,7,9} not admitted when the threshold decrease made {2,4} too-dense")
	}
	if got, want := expandedKeys(e, nil), oracleKeys(e, nil); !slices.Equal(got, want) {
		t.Fatalf("expanded output-dense set %v != oracle %v", got, want)
	}
	if msg := e.ValidateIndex(); msg != "" {
		t.Fatalf("index invalid: %s", msg)
	}
}

// TestThresholdDecreaseExistingStarsMissEdgeMembers is the reduced reproducer
// of an incompleteness of the incremental threshold decrease (Algorithm 3,
// lines 5–9), found by a random walk over Process / ProcessBatch /
// ProcessThresholdBatch / threshold moves ×1.1 and ×0.9 on ten vertices at
// T=1.2, Nmax=4: 8 of 200 seeds left brute.EnumerateAll,
// each right after a decrease, each missing a set of Nmax vertices. Two
// disjoint pairs, both too-dense before the decrease and so both with a family
// already: their union is 0.01 short of dense at T=1.2 and dense at 1.08, and
// the incremental walk never looked for it. A decrease now rebuilds the index
// from the graph, which finds it the way one batch of every edge does.
func TestThresholdDecreaseExistingStarsMissEdgeMembers(t *testing.T) {
	e := MustNew(Config{T: 1.2, Nmax: 4})
	e.Process(Update{A: 1, B: 3, Delta: 3.595})
	e.Process(Update{A: 5, B: 6, Delta: 3.595})
	if e.ImplicitFamilyCount() != 2 || slices.Contains(oracleKeys(e, nil), "1,3,5,6") {
		t.Fatalf("fixture: %d families, oracle %v", e.ImplicitFamilyCount(), oracleKeys(e, nil))
	}
	e.ProcessThresholdBatch(1.2/1.08, nil) // T from 1.2 to 1.08
	if got, want := expandedKeys(e, nil), oracleKeys(e, nil); !slices.Equal(got, want) {
		t.Fatalf("expanded output-dense set %v != oracle %v", got, want)
	}
}
