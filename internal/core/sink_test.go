package core

import (
	"testing"

	"dyndens/internal/vset"
)

func ev(kind EventKind, vs ...vset.Vertex) Event {
	set := vset.New(vs...)
	return Event{Kind: kind, Set: set, Score: 1, Density: 1}
}

func TestCollectorSinkTake(t *testing.T) {
	var c CollectorSink
	c.Emit(ev(BecameOutputDense, 1, 2))
	c.Emit(ev(CeasedOutputDense, 1, 2))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	got := c.Take()
	if len(got) != 2 || got[0].Kind != BecameOutputDense || got[1].Kind != CeasedOutputDense {
		t.Fatalf("Take returned %v", got)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after Take = %d, want 0", c.Len())
	}
	// The taken slice must not be clobbered by later emissions.
	c.Emit(ev(BecameOutputDense, 3, 4))
	if !got[0].Set.Equal(vset.New(1, 2)) {
		t.Fatalf("taken events were clobbered: %v", got[0].Set)
	}
}

func TestCountingSink(t *testing.T) {
	var c CountingSink
	c.Emit(ev(BecameOutputDense, 1, 2))
	c.Emit(ev(BecameOutputDense, 1, 3))
	c.Emit(ev(CeasedOutputDense, 1, 2))
	if c.Became != 2 || c.Ceased != 1 || c.Total() != 3 {
		t.Fatalf("counts = %d/%d (total %d), want 2/1 (3)", c.Became, c.Ceased, c.Total())
	}
}

func TestFilterSinkMinCardinality(t *testing.T) {
	var out CollectorSink
	f := &FilterSink{Next: &out, MinCardinality: 3}
	f.Emit(ev(BecameOutputDense, 1, 2))
	f.Emit(ev(BecameOutputDense, 1, 2, 3))
	f.Emit(ev(BecameOutputDense, 1, 2, 3, 4))
	if f.Passed != 2 || f.Dropped != 1 {
		t.Fatalf("passed/dropped = %d/%d, want 2/1", f.Passed, f.Dropped)
	}
	if out.Len() != 2 || out.Events()[0].Set.Len() != 3 {
		t.Fatalf("forwarded events = %v", out.Events())
	}
}

func TestFilterSinkWatchlist(t *testing.T) {
	var out CollectorSink
	f := &FilterSink{Next: &out, Watch: vset.New(5, 9)}
	f.Emit(ev(BecameOutputDense, 1, 2))    // no watched vertex
	f.Emit(ev(BecameOutputDense, 4, 5))    // contains 5
	f.Emit(ev(BecameOutputDense, 8, 9, 7)) // contains 9
	f.Emit(ev(BecameOutputDense, 6, 10))   // straddles both, contains neither
	if f.Passed != 2 || f.Dropped != 2 {
		t.Fatalf("passed/dropped = %d/%d, want 2/2", f.Passed, f.Dropped)
	}
	if out.Len() != 2 {
		t.Fatalf("forwarded %d events, want 2", out.Len())
	}
}

func TestFilterSinkNilNextCountsOnly(t *testing.T) {
	f := &FilterSink{MinCardinality: 2}
	f.Emit(ev(BecameOutputDense, 1, 2))
	if f.Passed != 1 {
		t.Fatalf("passed = %d, want 1", f.Passed)
	}
}

func TestMultiSinkFanout(t *testing.T) {
	var a, b CollectorSink
	m := MultiSink{&a, &b}
	m.Emit(ev(BecameOutputDense, 1, 2))
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fanout lens = %d/%d, want 1/1", a.Len(), b.Len())
	}
}

// boundarySink records events and the update boundaries separating them.
type boundarySink struct {
	CollectorSink
	boundaries   int
	eventsByTurn [][]Event // events grouped by the update that produced them
	pending      []Event
}

func (b *boundarySink) Emit(ev Event) {
	b.CollectorSink.Emit(ev)
	b.pending = append(b.pending, ev)
}

func (b *boundarySink) EndUpdate() {
	b.boundaries++
	b.eventsByTurn = append(b.eventsByTurn, b.pending)
	b.pending = nil
}

// TestUpdateBoundaryPerProcess pins the UpdateBoundarySink contract: exactly
// one EndUpdate per Process call, no-ops included, with the update's events
// emitted before the boundary.
func TestUpdateBoundaryPerProcess(t *testing.T) {
	e := MustNew(Config{T: 3, Nmax: 4})
	sink := &boundarySink{}
	e.SetSink(sink)
	updates := []Update{
		{A: 1, B: 2, Delta: 4},  // became
		{A: 1, B: 1, Delta: 2},  // no-op: self loop
		{A: 3, B: 4, Delta: 0},  // no-op: zero delta
		{A: 5, B: 6, Delta: -1}, // no-op: clamped to zero on a missing edge
		{A: 1, B: 2, Delta: -2}, // ceased
	}
	for _, u := range updates {
		e.Process(u)
	}
	if sink.boundaries != len(updates) {
		t.Fatalf("saw %d boundaries for %d Process calls", sink.boundaries, len(updates))
	}
	perTurn := make([]int, len(sink.eventsByTurn))
	for i, evs := range sink.eventsByTurn {
		perTurn[i] = len(evs)
	}
	want := []int{1, 0, 0, 0, 1}
	for i := range want {
		if perTurn[i] != want[i] {
			t.Fatalf("events per update = %v, want %v", perTurn, want)
		}
	}
	if sink.eventsByTurn[0][0].Kind != BecameOutputDense || sink.eventsByTurn[4][0].Kind != CeasedOutputDense {
		t.Fatalf("boundary grouping misattributed events: %+v", sink.eventsByTurn)
	}
}

// TestUpdateBoundaryThroughWrappers verifies MultiSink and FilterSink forward
// EndUpdate to boundary-aware members, and that a threshold unit counts as
// one boundary.
func TestUpdateBoundaryThroughWrappers(t *testing.T) {
	e := MustNew(Config{T: 3, Nmax: 4})
	inner := &boundarySink{}
	var counter CountingSink
	e.SetSink(MultiSink{&counter, &FilterSink{Next: inner}})
	e.Process(Update{A: 1, B: 2, Delta: 4})
	e.ProcessThresholdBatch(0.6, nil) // T from 3 to 5
	if inner.boundaries != 2 {
		t.Fatalf("wrapped sink saw %d boundaries, want 2 (one Process + one threshold unit)", inner.boundaries)
	}
	if len(inner.eventsByTurn[0]) != 1 || len(inner.eventsByTurn[1]) != 1 {
		t.Fatalf("events per boundary = %d/%d, want 1/1", len(inner.eventsByTurn[0]), len(inner.eventsByTurn[1]))
	}
}

// TestThresholdUnitThroughSink verifies the dynamic threshold procedure also
// routes through the sink.
func TestThresholdUnitThroughSink(t *testing.T) {
	e := MustNew(Config{T: 3, Nmax: 4})
	var sink CollectorSink
	e.SetSink(&sink)
	e.Process(Update{A: 1, B: 2, Delta: 4}) // output-dense at T=3
	sink.Take()
	e.ProcessThresholdBatch(0.6, nil) // T from 3 to 5
	if sink.Len() != 1 || sink.Events()[0].Kind != CeasedOutputDense {
		t.Fatalf("sink events after threshold increase: %v", sink.Events())
	}
}
