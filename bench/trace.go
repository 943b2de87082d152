package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// procStart anchors every timestamp the benchmark takes: nowNs is the
// monotonic clock in nanoseconds since the process started.
var procStart = time.Now()

func nowNs() int64 { return int64(time.Since(procStart)) }

// layerID names one layer boundary the traced run puts a span around. The
// string form is the span name in trace-<workload>.json and the stem of the
// per-layer busy metrics.
type layerID uint8

const (
	lDriver        layerID = iota // one loop iteration of the bench's replay loop (root span)
	lRead                         // document source Next: read + parse
	lAppend                       // persist.Store.Docs wrapper Next: encode + buffered WAL write
	lAggregate                    // Aggregator.NextBatch
	lPullWait                     // pipelined front-end NextBatch, as seen by the driver
	lCoreUpdate                   // Engine.Process
	lCoreThreshold                // Engine.ProcessThresholdBatch
	lStorySink                    // story.Tracker Emit + EndUpdate (tracker is the sink)
	lServeSink                    // serve.Builder Emit + EndUpdate / EmitSeq (wraps the tracker)
	lShardDispatch                // ShardedEngine.Process*/Flush on the driver goroutine
	lCapture                      // snapshot capture callback inside MaybeSnapshot
	lHTTPTop                      // client: GET /stories/top
	lHTTPStory                    // client: GET /stories/{id}
	lHTTPEntity                   // client: GET /entities/{e}
	nLayers
)

var layerNames = [nLayers]string{
	"driver", "stream.read", "persist.append", "stream.aggregate", "stream.pull_wait",
	"core.update", "core.threshold", "story.sink", "serve.sink", "shard.dispatch",
	"persist.capture", "http.top", "http.story", "http.entity",
}

// sampleEvery is the deterministic span-tree sampling period: full span trees
// are kept for units whose index is a multiple of it, totals for all of them.
const sampleEvery = 256

// spanRec is one recorded span of a sampled unit.
type spanRec struct {
	Name      string `json:"name"`
	Goroutine string `json:"goroutine"`
	Unit      int64  `json:"unit"`
	Parent    int    `json:"parent"` // index into the same goroutine's span list, -1 for a root
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Self      int64  `json:"self_ns"`
}

type traceFrame struct {
	layer layerID
	start int64
	child int64 // summed duration of finished direct children
	rec   int   // index into spans, -1 when the unit is not sampled
}

// tracer accumulates spans opened and closed on ONE goroutine. Spans nest
// strictly (begin/end are a stack), so a span's self time is its duration
// minus the durations of its direct children; selfTimes computes the same
// thing for arbitrary, possibly overlapping children and is what the written
// trace uses.
type tracer struct {
	goroutine string
	stack     []traceFrame
	self      [nLayers]int64
	calls     [nLayers]int64
	callHist  [nLayers]hist // self time per call
	unit      int64
	sample    bool
	spans     []spanRec
}

func newTracer(goroutine string) *tracer {
	return &tracer{goroutine: goroutine, stack: make([]traceFrame, 0, 8)}
}

// setUnit names the unit (document or update index) the following spans
// belong to. Call it only between root spans.
func (t *tracer) setUnit(u int64) {
	t.unit = u
	t.sample = u%sampleEvery == 0
}

func (t *tracer) begin(l layerID) {
	rec := -1
	now := nowNs()
	if t.sample {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		rec = len(t.spans)
		t.spans = append(t.spans, spanRec{
			Name: layerNames[l], Goroutine: t.goroutine, Unit: t.unit, Parent: parent, Start: now,
		})
	}
	t.stack = append(t.stack, traceFrame{layer: l, start: now, rec: rec})
}

func (t *tracer) end() {
	now := nowNs()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - f.start
	self := dur - f.child
	t.self[f.layer] += self
	t.calls[f.layer]++
	t.callHist[f.layer].add(self)
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if f.rec >= 0 {
		t.spans[f.rec].End = now
		t.spans[f.rec].Self = self
	}
}

// exclude takes the ns that just passed out of every open span: a calibration
// pause of the meter, which is no layer's time.
func (t *tracer) exclude(ns int64) {
	for i := range t.stack {
		t.stack[i].start += ns
		if rec := t.stack[i].rec; rec >= 0 {
			t.spans[rec].Start += ns
		}
	}
}

// reset forgets everything recorded so far (the warm-up); call it only
// between root spans.
func (t *tracer) reset() {
	*t = tracer{goroutine: t.goroutine, stack: t.stack[:0]}
}

func (t *tracer) selfSeconds(l layerID) float64 { return float64(t.self[l]) / 1e9 }

// selfTimes fills in Self for every span of one goroutine's list: duration
// minus the part of the span's interval that its direct children cover.
// Children may overlap each other and may stick out of the parent; only the
// covered part inside the parent is subtracted.
func selfTimes(spans []spanRec) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = p.End - p.Start - covered
	}
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Workload       string               `json:"workload"`
	Seed           uint64               `json:"seed"`
	Units          int64                `json:"units"`
	SampleEvery    int                  `json:"sample_every"`
	UntracedWallS  float64              `json:"untraced_wall_s"`
	UntracedSlices []sliceRec           `json:"untraced_slices"` // the window the end-to-end metrics are medians over
	WallSeconds    float64              `json:"wall_s"`          // traced run
	LayerSelfS     map[string]float64   `json:"layer_self_s"`
	LayerCalls     map[string]int64     `json:"layer_calls"`
	Goroutines     map[string][]spanRec `json:"goroutines"`
}

// sliceRec is one equal-work slice of a measured window.
type sliceRec struct {
	Core      float64 `json:"speed_core"`  // the box's speed factors while the slice ran …
	Mixed     float64 `json:"speed_mixed"` // … the other fields are at reference speed
	UnitsPerS float64 `json:"units_per_s"`
	P50us     float64 `json:"p50_us"`
	P95us     float64 `json:"p95_us"`
	P99us     float64 `json:"p99_us"`
}

// writeTrace writes the sampled span trees and the per-layer totals of a
// traced run, and the untraced window slice by slice. Parent indices are per
// goroutine.
func writeTrace(path, workload string, seed uint64, untraced, traced *meter, tracers ...*tracer) error {
	tf := traceFile{
		Workload: workload, Seed: seed, Units: traced.units, SampleEvery: sampleEvery,
		UntracedWallS: untraced.wallSeconds(), WallSeconds: traced.wallSeconds(),
		LayerSelfS: map[string]float64{}, LayerCalls: map[string]int64{}, Goroutines: map[string][]spanRec{},
	}
	for i, rate := range untraced.sliceRates() {
		lat, f, lf := &untraced.slices[i].lat, untraced.speed(i), untraced.latencySpeed(i)
		tf.UntracedSlices = append(tf.UntracedSlices, sliceRec{f.core, f.mixed, rate, lat.quantile(0.5) / 1e3 / lf, lat.quantile(0.95) / 1e3 / lf, lat.quantile(0.99) / 1e3 / lf})
	}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for l := layerID(0); l < nLayers; l++ {
			if t.calls[l] > 0 {
				tf.LayerSelfS[layerNames[l]] += t.selfSeconds(l)
				tf.LayerCalls[layerNames[l]] += t.calls[l]
			}
		}
		selfTimes(t.spans)
		tf.Goroutines[t.goroutine] = t.spans
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
