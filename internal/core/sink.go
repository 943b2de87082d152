package core

import "dyndens/internal/vset"

// EventSink receives output-dense change events as the engine discovers them.
//
// It is the engine's only way out: a sink installed with Engine.SetSink
// observes every Became/CeasedOutputDense change the moment it is found,
// without the engine materialising a per-update slice. Sinks are invoked
// synchronously from the engine's mutation entry points on the engine's
// goroutine, while the unit is still being applied. Emit must therefore not
// call back into the engine — neither mutators (Process, ProcessBatch) nor
// queries (OutputDense etc.), which would observe a half-applied update. An
// implementation that needs either should hand the event off to its own
// machinery and act after the call returns.
//
// Set ownership (the clone-elision contract): by default the engine clones
// Event.Set out of its internal scratch buffers before Emit, so the set may
// be retained indefinitely. A sink that only inspects the set during Emit can
// opt out of that clone by also implementing SetRetainer and returning false
// — the engine then passes its scratch directly, and the set is valid ONLY
// for the duration of the Emit call. CountingSink and FilterSink (when its
// Next does not retain) do this, which is what makes the steady-state
// Process hot path allocation-free.
type EventSink interface {
	Emit(ev Event)
}

// UpdateBoundarySink is the optional capability by which a sink asks to be
// told where one update ends and the next begins. The engine calls EndUpdate
// exactly once per Process call — including no-op updates (A == B, zero or
// fully clamped delta) that emit no events — and once per batch unit
// (threshold units included), after every event of that unit has been
// emitted.
// Consumers that group events by the update that produced them (the
// story-identity tracker in internal/story is the canonical example) rely on
// this signal to know when a per-update buffer is complete; counting every
// Process call keeps their update sequence equal to the number of units
// processed.
//
// EndUpdate is invoked on the processing goroutine before the call returns
// and is subject to the same restriction as Emit: it must not call back into
// the engine.
type UpdateBoundarySink interface {
	// EndUpdate marks the end of one unit: a Process or batch call.
	EndUpdate()
}

// SetRetainer is the optional capability by which a sink declares whether it
// (or anything it forwards to) keeps a reference to Event.Set after Emit
// returns. Sinks that do not implement it are assumed to retain, and the
// engine clones every emitted set for them.
type SetRetainer interface {
	// RetainsSets reports whether Event.Set may be referenced after Emit.
	// Returning false licenses the engine to reuse the set's backing array
	// for the next event.
	RetainsSets() bool
}

// SinkRetainsSets reports whether s must be handed a private copy of
// Event.Set: true unless s implements SetRetainer and declares otherwise.
func SinkRetainsSets(s EventSink) bool {
	if r, ok := s.(SetRetainer); ok {
		return r.RetainsSets()
	}
	return true
}

// EventSinkFunc adapts a plain function to the EventSink interface.
type EventSinkFunc func(ev Event)

// Emit implements EventSink.
func (f EventSinkFunc) Emit(ev Event) { f(ev) }

// CollectorSink accumulates events into a slice. It is the sink for callers
// that want the exact event sequence of a unit (tests). The zero value is
// ready to use.
type CollectorSink struct {
	events []Event
}

// Emit implements EventSink.
func (c *CollectorSink) Emit(ev Event) { c.events = append(c.events, ev) }

// RetainsSets implements SetRetainer: the collector stores events, so it
// needs private set copies.
func (c *CollectorSink) RetainsSets() bool { return true }

// Events returns the accumulated events without resetting the sink. The
// returned slice aliases the sink's buffer; callers that keep it past the next
// Emit should copy it (or use Take).
func (c *CollectorSink) Events() []Event { return c.events }

// Len returns the number of accumulated events.
func (c *CollectorSink) Len() int { return len(c.events) }

// Take returns the accumulated events and resets the sink. The returned slice
// is owned by the caller; subsequent Emits start a fresh buffer.
func (c *CollectorSink) Take() []Event {
	evs := c.events
	c.events = nil
	return evs
}

// discardSink is the sink of an engine without one installed: it drops every
// event and retains no set, so such an engine reports nothing and allocates
// nothing to do so.
type discardSink struct{}

// Emit implements EventSink.
func (discardSink) Emit(Event) {}

// RetainsSets implements SetRetainer.
func (discardSink) RetainsSets() bool { return false }

// CountingSink counts events by kind without retaining them. It is the
// cheapest possible sink and the default for throughput benchmarks, where
// materialising events would distort the measurement. The zero value is ready
// to use.
type CountingSink struct {
	Became uint64 // BecameOutputDense events observed
	Ceased uint64 // CeasedOutputDense events observed
}

// Emit implements EventSink.
func (c *CountingSink) Emit(ev Event) {
	switch ev.Kind {
	case BecameOutputDense:
		c.Became++
	case CeasedOutputDense:
		c.Ceased++
	}
}

// RetainsSets implements SetRetainer: the counter never touches Event.Set,
// so the engine can skip the per-event clone entirely.
func (c *CountingSink) RetainsSets() bool { return false }

// Total returns the total number of events observed.
func (c *CountingSink) Total() uint64 { return c.Became + c.Ceased }

// FilterSink forwards to Next only the events that pass its predicates. It is
// the story-tracking primitive: a consumer interested in, say, stories of at
// least four entities mentioning a particular person installs a FilterSink
// with MinCardinality=4 and that person's vertex on the watchlist.
//
// An event passes when its subgraph has cardinality ≥ MinCardinality (0 or 1
// disables the check) and, if Watch is non-empty, contains at least one
// watched vertex.
type FilterSink struct {
	// Next receives the events that pass the filter. A nil Next makes the
	// sink count-only (Passed/Dropped still advance).
	Next EventSink
	// MinCardinality is the minimum subgraph cardinality to forward.
	MinCardinality int
	// Watch, when non-empty, requires the subgraph to contain at least one of
	// these vertices.
	Watch vset.Set

	// Passed and Dropped count the filter's decisions.
	Passed  uint64
	Dropped uint64
}

// Emit implements EventSink.
func (f *FilterSink) Emit(ev Event) {
	if !f.match(ev) {
		f.Dropped++
		return
	}
	f.Passed++
	if f.Next != nil {
		f.Next.Emit(ev)
	}
}

// RetainsSets implements SetRetainer: the filter itself only reads the set
// during Emit (the cardinality gate and the watchlist merge-scan), so it
// retains exactly when its Next does.
func (f *FilterSink) RetainsSets() bool {
	return f.Next != nil && SinkRetainsSets(f.Next)
}

// EndUpdate implements UpdateBoundarySink by forwarding the boundary to Next
// when it wants one. The filter itself is stateless across updates.
func (f *FilterSink) EndUpdate() {
	if b, ok := f.Next.(UpdateBoundarySink); ok {
		b.EndUpdate()
	}
}

func (f *FilterSink) match(ev Event) bool {
	if ev.Set.Len() < f.MinCardinality {
		return false
	}
	if f.Watch.Empty() {
		return true
	}
	// Both sets are sorted; merge-scan for a common vertex.
	s, w := ev.Set, f.Watch
	i, j := 0, 0
	for i < len(s) && j < len(w) {
		switch {
		case s[i] < w[j]:
			i++
		case s[i] > w[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// MultiSink fans every event out to all member sinks in order.
type MultiSink []EventSink

// Emit implements EventSink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// EndUpdate implements UpdateBoundarySink by forwarding the boundary to every
// member that wants one.
func (m MultiSink) EndUpdate() {
	for _, s := range m {
		if b, ok := s.(UpdateBoundarySink); ok {
			b.EndUpdate()
		}
	}
}

// RetainsSets implements SetRetainer: the fan-out needs a private copy as
// soon as any member does.
func (m MultiSink) RetainsSets() bool {
	for _, s := range m {
		if SinkRetainsSets(s) {
			return true
		}
	}
	return false
}
