package main

import "testing"

// Self time is duration minus the covered part of the children: nested
// children, overlapping children, and children sticking out of the parent.
func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{Name: "root", Parent: -1, Start: 0, End: 100},         // 0
		{Name: "a", Parent: 0, Start: 10, End: 40},             // 1: nested, has its own child
		{Name: "a1", Parent: 1, Start: 15, End: 25},            // 2
		{Name: "b", Parent: 0, Start: 30, End: 60},             // 3: overlaps a by 10
		{Name: "c", Parent: 0, Start: 50, End: 55},             // 4: inside b's interval
		{Name: "d", Parent: 0, Start: 90, End: 130},            // 5: sticks out by 30
		{Name: "other-root", Parent: -1, Start: 200, End: 260}, // 6
		{Name: "e", Parent: 6, Start: 200, End: 260},           // 7: covers the parent entirely
	}
	selfTimes(spans)
	want := []int64{
		100 - (30 + 20 + 0 + 10), // a covers 10–40, b adds 40–60, c nothing, d 90–100
		30 - 10,
		10,
		30,
		5,
		40,
		0,
		60,
	}
	for i, w := range want {
		if spans[i].Self != w {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, spans[i].Self, w)
		}
	}
}

// The tracer's stack accounting agrees with selfTimes on what it records
// (strictly nested spans), and only every sampleEvery-th unit keeps spans.
func TestTracerMatchesSelfTimes(t *testing.T) {
	tr := newTracer("t")
	for unit := int64(0); unit < 2*sampleEvery; unit++ {
		tr.setUnit(unit)
		tr.begin(lDriver)
		tr.begin(lAggregate)
		tr.begin(lRead)
		tr.end()
		tr.end()
		for i := 0; i < 3; i++ {
			tr.begin(lCoreUpdate)
			tr.begin(lServeSink)
			tr.end()
			tr.end()
		}
		tr.end()
	}
	if got, want := len(tr.spans), 2*(1+2+3*2); got != want {
		t.Fatalf("kept %d spans, want %d (2 sampled units)", got, want)
	}
	if tr.calls[lCoreUpdate] != 3*2*sampleEvery || tr.calls[lDriver] != 2*sampleEvery {
		t.Errorf("calls: core.update %d driver %d", tr.calls[lCoreUpdate], tr.calls[lDriver])
	}
	recorded := append([]spanRec(nil), tr.spans...)
	selfTimes(tr.spans)
	var total int64
	for i := range recorded {
		if recorded[i].Self != tr.spans[i].Self {
			t.Errorf("span %d (%s): stack self %d, selfTimes %d", i, recorded[i].Name, recorded[i].Self, tr.spans[i].Self)
		}
		if recorded[i].Unit%sampleEvery != 0 {
			t.Errorf("span %d belongs to unsampled unit %d", i, recorded[i].Unit)
		}
		total += recorded[i].Self
	}
	// Self times of a tree add up to the roots' durations.
	var roots int64
	for _, s := range recorded {
		if s.Parent == -1 {
			roots += s.End - s.Start
		}
	}
	if total != roots {
		t.Errorf("self times sum to %d, root durations to %d", total, roots)
	}
	var all int64
	for l := layerID(0); l < nLayers; l++ {
		all += tr.self[l]
	}
	if all <= 0 {
		t.Errorf("accumulated self time %d", all)
	}
	tr.reset()
	if len(tr.spans) != 0 || tr.calls[lDriver] != 0 || tr.goroutine != "t" {
		t.Errorf("reset left %d spans, %d calls, name %q", len(tr.spans), tr.calls[lDriver], tr.goroutine)
	}
}

// exclude takes a pause out of every open span and leaves closed ones alone.
func TestTracerExcludesPauses(t *testing.T) {
	tr := newTracer("t")
	tr.setUnit(0)
	tr.begin(lDriver)
	tr.begin(lCoreUpdate)
	tr.end()
	core := tr.self[lCoreUpdate]
	tr.begin(lServeSink)
	const pause = int64(1) << 40 // far longer than the test runs
	tr.exclude(-pause)           // a negative pause lengthens the open spans: easy to tell from clock noise
	tr.end()
	tr.end()
	if tr.self[lCoreUpdate] != core {
		t.Errorf("closed span changed: %d → %d", core, tr.self[lCoreUpdate])
	}
	if tr.self[lServeSink] < pause {
		t.Errorf("open child span: self %d, want ≥ %d", tr.self[lServeSink], pause)
	}
	if d := tr.self[lDriver]; d < 0 || d >= pause {
		t.Errorf("open parent span: self %d, want the pause to cancel against its child", d)
	}
}
