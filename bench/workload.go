package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runConfig is one invocation: one workload, one seed.
type runConfig struct {
	Workload  string
	Seed      uint64
	Seconds   float64 // nominal length of the measured window: it holds Rate × Seconds units
	Units     int64   // > 0: measure exactly this many units instead (package tests)
	FullSize  bool    // the window was sized from Seconds: regime and stationarity checks apply
	Trace     bool    // also do the traced run and report the per-layer metrics
	SetupRuns int     // how many times set-up is done and timed (median reported)
	OutDir    string  // inputs, WAL directories and trace files go here
	Quick     bool    // a tenth of the warm-up (package tests only)
	abort     func(reason string)

	slices int         // equal-work slices the window is cut into
	cal    *calibrator // the box's speed, read around every set-up and every slice
}

// window starts the measured window: rc.Units units in rc.slices slices, a
// calibration reading before it and after every slice.
func (rc *runConfig) window(wd *watchdog, work func() int64) *meter {
	return newWindow(rc.Units, rc.slices, rc.cal.measure, wd, work)
}

// openWindow starts the window of the open-loop workload, which is not
// calibrated: its units arrive on a schedule and the box is mostly idle, so
// its timings do not follow the readings (README "Noise"), and a reading
// would hold up the documents that fall due while it is taken.
func (rc *runConfig) openWindow(wd *watchdog, work func() int64) *meter {
	return newWindow(rc.Units, rc.slices, nil, wd, work)
}

// warm scales a workload's warm-up length.
func (rc *runConfig) warm(units int64) int64 {
	if rc.Quick {
		return units / 10
	}
	return units
}

// workloadDef is one named workload of the suite.
type workloadDef struct {
	Name  string
	Why   string
	Unit  string     // "update" or "document"
	Procs func() int // GOMAXPROCS the workload runs at
	// Rate sizes the window: it holds Rate × seconds units, which takes about
	// `seconds` on the box the constants were calibrated on (README). The work
	// is fixed, not the time: counts, allocations and the final state are then
	// the same from run to run, and a faster program simply finishes sooner.
	Rate float64
	// setup generates the input, builds the pipeline and warms it up. tr is
	// non-nil for the traced run.
	setup func(rc *runConfig, wd *watchdog, traced bool) (instance, error)
}

// instance is a set-up workload, ready to be measured once.
type instance interface {
	// measure runs the window of exactly rc.Units units.
	measure() error
	// finish runs the end-of-workload checks, collects counts and releases
	// everything (goroutines, files).
	finish() (*outcome, error)
	// discard releases everything without measuring.
	discard()
}

// outcome is what one measured run (untraced or traced) produced.
type outcome struct {
	meter       *meter
	counts      layerCounts
	fingerprint uint64 // story table (raw-churn: output-dense count)
	mallocs     uint64
	stateHeap   int64
	failures    []string
	attempted   int64
	info        map[string]float64 // extra per-run numbers (recall, live-story range, …)
	tracers     []*tracer
	extra       map[string]float64 // per-layer metrics measured outside the tracers
}

// memWindow is the three memory readings every workload takes: before the
// pipeline is built, at the start of the window and at its end.
type memWindow struct{ base, before, after memReading }

// newOutcome starts the outcome of a measured window.
func newOutcome(m *meter, mem *memWindow) *outcome {
	return &outcome{
		meter: m, attempted: m.units, mallocs: mem.after.mallocs - mem.before.mallocs,
		info: map[string]float64{}, extra: map[string]float64{},
	}
}

// settleHeap takes the state-heap reading; call it once the final state is
// in place (story layer closed) and before the pipeline is let go.
func (o *outcome) settleHeap(mem *memWindow) {
	o.stateHeap = int64(readMem(true).heap) - int64(mem.base.heap) - o.meter.bytes()
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// result is the whole invocation.
type result struct {
	Def        *workloadDef
	Config     runConfig
	Untraced   *outcome
	Traced     *outcome
	SetupS     []float64 // as measured
	SetupSpeed float64   // the box's (mixed) speed factor while the set-ups ran
	EndToEnd   map[string]float64
	PerLayer   map[string]float64
	Failures   []string
	Attempted  int64
	GoMaxProcs int
}

const setupMinSeconds = 3.0

// slicesPerSecond cuts the window into slices of about 100 ms. A calibration
// reading (≈ 3 ms) follows every slice: shorter slices follow the box's speed
// more closely (five times longer ones lost a third of the gain) and pause
// the pipeline more often.
const slicesPerSecond = 10

func one() int   { return 1 }
func nproc() int { return runtime.NumCPU() }

var workloads = []*workloadDef{
	{
		Name: "raw-churn", Unit: "update", Procs: one, Rate: 90_000, setup: setupRaw,
		Why: "sliding-window edge updates straight into core.Engine.Process: only core (graph/index/vset under it) works, so an engine change shows here and a tracker change must not",
	},
	{
		Name: "docs-steady", Unit: "document", Procs: one, Rate: 24_000, setup: setupDocsSteady,
		Why: "the serve pipeline without sockets (file, aggregator, engine, builder+tracker, view) with ~25 planted stories alive: story/serve sink work counts, so tracker and publish changes show here",
	},
	{
		Name: "docs-decay", Unit: "document", Procs: one, Rate: 9_000, setup: setupDocsDecay,
		Why: "epoch of 2 documents, decay 0.97: threshold walks, expiry-heap retirements and renormalisation instead of discovery, into a bare tracker; a discovery gain that costs the threshold path shows here",
	},
	{
		Name: "docs-steady-par", Unit: "document", Procs: nproc, Rate: 24_000, setup: setupDocsPar,
		Why: "the docs-steady file through the parallel aggregator and the K=nproc sharded engine: the only workload where shard and stream.Pipeline work; compare with docs-steady to keep or delete them",
	},
	{
		Name: "serve-durable", Unit: "document", Procs: nproc, Rate: serveRate, setup: setupServe,
		Why: "open loop at 3000 docs/s through WAL, aggregator, engine, builder and a real HTTP server, beside one keep-alive reader (≤1000 req/s) and one SSE client: persist and HTTP work only here",
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// runWorkload is one invocation: SetupRuns timed set-ups (the last one is
// measured), the untraced window, and — with Trace — a traced run of the same
// units through the bench's own instrumented loop.
func runWorkload(rc runConfig) (*result, error) {
	def := findWorkload(rc.Workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", rc.Workload)
	}
	if rc.SetupRuns < 1 {
		rc.SetupRuns = 1
	}
	if rc.Units <= 0 {
		rc.Units, rc.FullSize = int64(def.Rate*rc.Seconds), true
		rc.slices = int(math.Round(slicesPerSecond * rc.Seconds))
	}
	var err error
	if rc.cal, err = newCalibrator(def.Procs()); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rc.OutDir, 0o755); err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(def.Procs())
	defer runtime.GOMAXPROCS(prev)
	res := &result{Def: def, Config: rc, GoMaxProcs: def.Procs()}

	abort := rc.abort
	if abort == nil {
		abort = func(reason string) {
			fmt.Fprintf(os.Stderr, "%-16s ABORTED  %s\n", def.Name, reason)
			os.Exit(3)
		}
	}
	wd := startWatchdog(abort)
	defer wd.close()

	// Set-up is repeated SetupRuns times, and short set-ups (raw-churn's takes
	// a quarter of a second) more often, until setupMinSeconds have been
	// spent on it: setup_s is the median, and a median of few short
	// timings would mostly measure the box. A reading is taken between the
	// set-ups, and the median timing is put at reference speed by the median
	// reading: right after a set-up the runtime is still sweeping what the
	// set-up allocated, so single readings here are off by up to 1.7×.
	var inst instance
	total := 0.0
	readings := []reading{rc.cal.measure()}
	for i := 0; i < rc.SetupRuns || (rc.SetupRuns > 1 && total < setupMinSeconds && i < 3*rc.SetupRuns); i++ {
		if inst != nil {
			inst.discard()
		}
		start := nowNs()
		if inst, err = def.setup(&rc, wd, false); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		res.SetupS = append(res.SetupS, float64(nowNs()-start)/1e9)
		total += res.SetupS[i]
		readings = append(readings, rc.cal.measure())
	}
	during := medianReading(readings)
	res.SetupSpeed = speedBetween(during, during).mixed
	wd.enter("window")
	if err := inst.measure(); err != nil {
		inst.discard()
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	wd.pause()
	if res.Untraced, err = inst.finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	res.Attempted = res.Untraced.attempted
	res.Failures = append(res.Failures, res.Untraced.failures...)

	if rc.Trace {
		tinst, err := def.setup(&rc, wd, true)
		if err != nil {
			return nil, fmt.Errorf("%s: traced set-up: %w", def.Name, err)
		}
		wd.enter("traced window")
		if err := tinst.measure(); err != nil {
			tinst.discard()
			return nil, fmt.Errorf("%s: traced: %w", def.Name, err)
		}
		wd.pause()
		if res.Traced, err = tinst.finish(); err != nil {
			return nil, fmt.Errorf("%s: traced: %w", def.Name, err)
		}
		for _, f := range res.Traced.failures {
			res.Failures = append(res.Failures, "traced: "+f)
		}
		res.Failures = append(res.Failures, compareRuns(res.Untraced, res.Traced)...)
		path := filepath.Join(rc.OutDir, "trace-"+def.Name+".json")
		if err := writeTrace(path, def.Name, rc.Seed, res.Untraced.meter, res.Traced.meter, res.Traced.tracers...); err != nil {
			return nil, err
		}
	}
	res.EndToEnd = endToEndMetrics(res)
	if rc.Trace {
		res.PerLayer = perLayerMetrics(res)
	}
	return res, nil
}

// compareRuns checks that the traced run did the same work as the untraced
// one: same units, same event and record counts, same final story table.
func compareRuns(u, t *outcome) []string {
	var out []string
	check := func(what string, a, b int64) {
		if a != b {
			out = append(out, fmt.Sprintf("traced run differs from untraced: %s %d vs %d", what, b, a))
		}
	}
	check("units", u.meter.units, t.meter.units)
	check("events", u.counts.Events, t.counts.Events)
	check("became", u.counts.Became, t.counts.Became)
	check("ceased", u.counts.Ceased, t.counts.Ceased)
	check("records", u.counts.Records, t.counts.Records)
	if u.fingerprint != t.fingerprint {
		out = append(out, fmt.Sprintf("traced run differs from untraced: story-table fingerprint %016x vs %016x", t.fingerprint, u.fingerprint))
	}
	return out
}

// checkEngine appends the end-of-workload engine checks every workload makes.
func checkEngine(o *outcome, rescaled bool) {
	c := &o.counts
	switch {
	case c.IndexError == "":
	case rescaled && strings.HasPrefix(c.IndexError, "stored score drift"):
		// ValidateIndex compares stored and recomputed scores with an
		// ABSOLUTE tolerance of 1e-6, but under rescaled decay scores are in
		// normalised units (w/λ, λ down to 1e-150), where float64 rounding
		// alone exceeds it. The structural part of the check did pass; the
		// drift report is recorded, not failed (README "Correctness checks").
		o.info["index_drift_reported"] = 1
	default:
		o.failf("Engine.ValidateIndex: %s", c.IndexError)
	}
	if c.Became-c.Ceased != c.OutputDense {
		o.failf("became − ceased = %d but OutputDenseCount() = %d", c.Became-c.Ceased, c.OutputDense)
	}
}

// stationaryLimit is how far the two halves of a window may differ in work.
const stationaryLimit = 1.15

// checkStationary fails a window whose second half of the units cost more
// than 15 % more or less WORK than the first half — the program's own
// deterministic counters (explorations + cheap explorations + events), so
// the verdict does not depend on what else the box was doing. The wall-time
// ratio of the halves is reported next to it (README "Noise").
func checkStationary(o *outcome) {
	o.info["halves_wall_ratio"] = o.meter.halvesRatio()
	r := o.meter.workRatio()
	o.info["halves_work_ratio"] = r
	if r < 1/stationaryLimit || r > stationaryLimit {
		o.failf("not stationary: the second half of the units cost %.2f× the engine work of the first (limit %.2f×)", r, stationaryLimit)
	}
}

// storyFingerprint hashes a story table: ids, born/last sequence numbers and
// entity sets, in id order (Tracker.Stories() is sorted by id).
func storyFingerprint(rows []StoryRow) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range rows {
		put(uint64(r.ID))
		put(r.BornSeq)
		put(r.LastSeq)
		put(uint64(len(r.Entities)))
		for _, e := range r.Entities {
			put(uint64(e))
		}
	}
	return h.Sum64()
}

// jaccardAtLeastHalf reports |a∩b| / |a∪b| ≥ 0.5 for sorted sets.
func jaccardAtLeastHalf(a, b []int32) bool {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return 2*inter >= len(a)+len(b)-inter
}

// recallScore accumulates the planted-story recall over checkpoints.
type recallScore struct {
	planted   []plantedStory
	ramp      int // documents a story needs before it can be expected in the table
	hits, all int64
	minLive   int
	maxLive   int
	checks    int
}

// check scores the story table as of document index doc.
func (r *recallScore) check(doc int, rows []StoryRow) {
	live := 0
	for _, row := range rows {
		if !row.Fading {
			live++
		}
	}
	if r.checks == 0 || live < r.minLive {
		r.minLive = live
	}
	if live > r.maxLive {
		r.maxLive = live
	}
	r.checks++
	for i := range r.planted {
		p := &r.planted[i]
		if doc < p.Start+r.ramp || doc >= p.End {
			continue
		}
		r.all++
		for _, row := range rows {
			if jaccardAtLeastHalf(p.Entities, row.Entities) {
				r.hits++
				break
			}
		}
	}
}

func (r *recallScore) recall() float64 {
	if r.all == 0 {
		return 1
	}
	return float64(r.hits) / float64(r.all)
}
