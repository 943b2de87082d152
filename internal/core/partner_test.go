package core

import (
	"slices"
	"testing"

	"dyndens/internal/vset"
)

// pairedEngine builds an exact engine (T=1, Nmax=4, no heuristics) from edge
// weights and returns it ready for the update {0,1} the tests below apply.
// No edge of these tests ever goes, so the graph's own vertices are the
// oracle's whole universe.
func pairedEngine(t *testing.T, edges []Update) *Engine {
	t.Helper()
	e := MustNew(Config{T: 1, Nmax: 4})
	for _, u := range edges {
		e.Process(u)
	}
	checkAgainstBrute(t, e, nil, "setup")
	return e
}

// becameKeys returns the keys of the Became events among evs, in order.
func becameKeys(evs []Event) []string {
	var out []string
	for _, ev := range evs {
		if ev.Kind == BecameOutputDense {
			out = append(out, ev.Set.Key())
		}
	}
	return out
}

// TestCheapExploreSeesUnionAdmittedEarlierInPass: the union {0,1,2,3} has no
// node when the update {0,1} takes its snapshot — no indexed set holds both 0
// and 1 — so {1,2,3}'s partner is nil. By the time {1,2,3} is cheap-explored,
// the cheap-exploration of {1,2} has admitted {0,1,2}, whose exploration
// admitted {0,1,2,3}: the nil partner must fall through to a lookup that finds
// it, not admit it a second time.
func TestCheapExploreSeesUnionAdmittedEarlierInPass(t *testing.T) {
	e := pairedEngine(t, []Update{
		{A: 0, B: 2, Delta: 1.2}, {A: 0, B: 3, Delta: 1.2}, {A: 2, B: 3, Delta: 1.2},
		{A: 1, B: 2, Delta: 1}, {A: 1, B: 3, Delta: 1},
	})
	union := vset.New(0, 1, 2, 3)
	if e.ix.Lookup(vset.New(0, 1)) != nil || e.ix.LookupDense(vset.New(1, 2, 3)) == nil || e.ix.LookupDense(vset.New(1, 2)) == nil {
		t.Fatalf("setup: want {1,2} and {1,2,3} indexed and no node holding both 0 and 1; index holds %v", e.Dense())
	}
	before := e.Stats()
	evs := collect(e, func() { e.Process(Update{A: 0, B: 1, Delta: 0.9}) })
	after := e.Stats()
	if e.ix.LookupDense(vset.New(0, 1)) != nil {
		t.Fatal("the pair {0,1} became dense: the union would be found by exploring it, not by cheap-exploration")
	}
	want := []string{"0,1,2", "0,1,2,3", "0,1,3"}
	got := becameKeys(evs)
	slices.Sort(got)
	if !slices.Equal(got, want) || len(evs) != len(want) {
		t.Fatalf("events %v, want one Became each for %v", evs, want)
	}
	if ins := after.Insertions - before.Insertions; ins != 3 {
		t.Fatalf("%d insertions, want 3 (%v once each)", ins, want)
	}
	// Of the six subgraphs holding one endpoint, {1,2} and {1,3} admit a
	// triple; the later attempts at the union — from {1,2,3} and {0,2,3} — and
	// at the two triples — from {0,2} and {0,3} — end at the lookup.
	if cheap, indexed := after.CheapExplores-before.CheapExplores, after.CheapIndexed-before.CheapIndexed; cheap != 6 || indexed != 4 {
		t.Fatalf("%d cheap-explorations of which %d found the union indexed, want 6 and 4", cheap, indexed)
	}
	if !e.Contains(union) {
		t.Fatalf("%v not indexed", union)
	}
	checkAgainstBrute(t, e, nil, "after the update")
}

// TestCheapExplorePartnerReadLive: {0,1,2,3} is dense while {0,1,2} is not, so
// at the snapshot of the update {0,1} the partner of both {1,2} and {0,2} is
// the pure prefix node of {0,1,2}. The cheap-exploration of {1,2} admits
// {0,1,2}, turning that node dense; {0,2}, examined later, must read the flag
// as it is then.
func TestCheapExplorePartnerReadLive(t *testing.T) {
	e := pairedEngine(t, []Update{
		{A: 0, B: 3, Delta: 1.3}, {A: 1, B: 3, Delta: 1.3}, {A: 2, B: 3, Delta: 1.3},
		{A: 0, B: 2, Delta: 1.2}, {A: 1, B: 2, Delta: 1}, {A: 0, B: 1, Delta: 0.1},
	})
	triple := vset.New(0, 1, 2)
	if n := e.ix.Lookup(triple); n == nil || n.Dense() || !e.Contains(vset.New(0, 1, 2, 3)) {
		t.Fatalf("setup: want {0,1,2} a pure prefix node under the indexed {0,1,2,3}; index holds %v", e.Dense())
	}
	before := e.Stats()
	evs := collect(e, func() { e.Process(Update{A: 0, B: 1, Delta: 0.8}) })
	after := e.Stats()
	if e.ix.LookupDense(vset.New(0, 1)) != nil {
		t.Fatal("the pair {0,1} became dense: {0,1,2} would be found by exploring it, not by cheap-exploration")
	}
	want := []string{"0,1,2", "0,1,3"}
	got := becameKeys(evs)
	slices.Sort(got)
	if !slices.Equal(got, want) || len(evs) != len(want) {
		t.Fatalf("events %v, want one Became each for %v", evs, want)
	}
	if ins := after.Insertions - before.Insertions; ins != 2 {
		t.Fatalf("%d insertions, want 2 (%v once each)", ins, want)
	}
	if !e.Contains(triple) {
		t.Fatalf("%v not indexed", triple)
	}
	checkAgainstBrute(t, e, nil, "after the update")
}
