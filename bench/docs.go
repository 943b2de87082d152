package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// docsSpec is everything that defines a document workload: the generator
// parameters, the pinned program configuration, and the regime it must stay
// in. The values are constants of the benchmark (README "Workloads").
type docsSpec struct {
	Gen      docParams
	Pipe     pipeConfig
	WarmDocs int64 // untimed documents fed before the window (part of set-up)
	Ramp     int   // documents before a planted story is expected in the table
	CheckGap int64 // documents between recall checkpoints

	// Regime limits, checked at the end of a full-size run (a violation is a
	// failed operation: the workload no longer measures what it says).
	MinLive, MaxLive   int     // live stories at every checkpoint
	MinRecordsPerDoc   float64 // lifecycle records per document
	MinThresholdPerDoc float64
	MinRetiredPerDoc   float64
	MinRenormsPerDoc   float64
	MinTrackedPairs    int64
	MinBornPerDoc      float64
}

// steadyGen is the document stream of docs-steady, docs-steady-par and
// serve-durable: 25 planted stories of 4–6 entities alive at once
// (geometric lifetimes, mean 8000 documents), 60 % story documents that
// mention 3 story entities (10 % of them plus one background entity), and
// background documents over 20 000 entities whose popularity falls as
// 1/rank with the first 50 ranks capped.
var steadyGen = docParams{
	Active: 25, MeanLife: 8000, MinSize: 4, MaxSize: 6,
	StoryFrac: 0.6, StoryMentions: 3, NoiseProb: 0.1,
	BgEntities: 20000, BgMentions: 3, BgExponent: 1, BgHeadCap: 50,
}

// steadyPipe: T=6.5, Nmax=5 and an epoch of 100 documents at decay 0.92. A
// planted pair gains ≈ 0.007 per document (60 % story documents, shared by 25
// stories in proportion to their pair counts, 3 of a story's pairs per
// document), i.e. 0.7 per epoch, so its weight settles at 0.7/(1−0.92) = 8.7
// just before a tick and 8.0 just after: 1.2–1.35·T. Above ≈ 1.6·T a planted
// subgraph is dense enough to make supersets with ANY extra vertex output-dense
// (README "Regime cliffs"). The hottest background pair stays below 0.1.
var steadyPipe = pipeConfig{T: 6.5, Nmax: 5, Epoch: 100, Decay: 0.92, Prune: 1e-3, Builder: true}

var docsSteadySpec = docsSpec{
	Gen: steadyGen, Pipe: steadyPipe,
	WarmDocs: 20_000, Ramp: 2500, CheckGap: 10_000,
	MinLive: 8, MaxLive: 60, MinRecordsPerDoc: 1.0 / 50,
}

// docs-decay: an epoch of 2 documents at decay 0.97 (time constant ≈ 67
// documents), 3 short-lived stories (mean life 5000 documents) whose
// documents mention 4 of their 5 entities (planted pair weight ≈ 8.0 =
// 1.3·T at T=6.2), background documents with 5 mentions, and PruneBelow 1e-18
// so that ≈ 11k pairs stay tracked.
var docsDecaySpec = docsSpec{
	Gen: docParams{
		Active: 3, MeanLife: 5000, MinSize: 5, MaxSize: 5,
		StoryFrac: 0.6, StoryMentions: 4, NoiseProb: 0.1,
		BgEntities: 20000, BgMentions: 5, BgExponent: 1, BgHeadCap: 50,
	},
	Pipe:     pipeConfig{T: 6.2, Nmax: 5, Epoch: 2, Decay: 0.97, Prune: 1e-18},
	WarmDocs: 10_000, Ramp: 300, CheckGap: 5_000,
	MinLive: 0, MaxLive: 20, MinThresholdPerDoc: 0.49, MinRetiredPerDoc: 1,
	MinRenormsPerDoc: 1.0 / 30_000, MinTrackedPairs: 10_000, MinBornPerDoc: 50.0 / 100_000,
}

func setupDocsSteady(rc *runConfig, wd *watchdog, traced bool) (instance, error) {
	return setupDocs(rc, wd, traced, &docsSteadySpec)
}

func setupDocsDecay(rc *runConfig, wd *watchdog, traced bool) (instance, error) {
	return setupDocs(rc, wd, traced, &docsDecaySpec)
}

// writeDocFile generates the workload's document stream and writes it to a
// file under OutDir, returning the path and the planted ground truth.
func writeDocFile(rc *runConfig, spec *docsSpec, tag string) (string, []plantedStory, error) {
	in := genDocs(rc.Seed, int(rc.warm(spec.WarmDocs)+rc.Units), spec.Gen)
	path := filepath.Join(rc.OutDir, fmt.Sprintf("%s-%d.docs", tag, os.Getpid()))
	if err := os.WriteFile(path, in.Text, 0o644); err != nil {
		return "", nil, err
	}
	return path, in.Planted, nil
}

// docsInstance is a single-engine document workload reading from a file.
type docsInstance struct {
	rc     *runConfig
	wd     *watchdog
	spec   *docsSpec
	path   string
	closer io.Closer
	pipe   *singlePipe
	tr     *tracer
	recall recallScore

	pullNs   int64 // when the pipeline asked for the document in flight
	docsRead int64
	docsDone int64
	m        *meter // the current phase's meter (warm-up, then window)

	mem memWindow
}

func setupDocs(rc *runConfig, wd *watchdog, traced bool, spec *docsSpec) (instance, error) {
	wd.pause()
	path, planted, err := writeDocFile(rc, spec, rc.Workload)
	if err != nil {
		return nil, err
	}
	in := &docsInstance{rc: rc, wd: wd, spec: spec, path: path}
	in.recall = recallScore{planted: planted, ramp: spec.Ramp}
	if traced {
		in.tr = newTracer("driver")
	}
	in.mem.base = readMem(true)
	src, closer, err := openDocFile(path)
	if err != nil {
		in.discard()
		return nil, err
	}
	in.closer = closer
	if in.pipe, err = newSinglePipe(spec.Pipe, src, in.pull, false, in.tr); err != nil {
		in.discard()
		return nil, err
	}
	wd.enter("warm-up")
	in.m = newMeter(rc.warm(spec.WarmDocs), wd, nil)
	if err := in.drive(); err != nil {
		in.discard()
		return nil, err
	}
	wd.pause()
	return in, nil
}

func (in *docsInstance) pull() {
	in.pullNs = nowNs()
	in.docsRead++
}

// hook runs after every batch the driver processed. A drained aggregator
// marks a document boundary: everything the document caused is visible.
func (in *docsInstance) hook() error {
	if !in.pipe.drained() {
		return nil
	}
	now := nowNs()
	in.docsDone++
	stop := in.m.done(now, now-in.pullNs)
	if in.tr != nil {
		in.tr.exclude(in.m.pause)
	}
	if in.docsDone%in.spec.CheckGap == 0 && in.docsDone > in.rc.warm(in.spec.WarmDocs) {
		in.recall.check(int(in.docsDone), in.pipe.stories())
	}
	if stop {
		return errStop
	}
	return nil
}

// drive runs the pipeline until the hook stops it: the program's own replay
// driver untraced, the bench's instrumented copy of it traced.
func (in *docsInstance) drive() error {
	if in.tr == nil {
		return in.pipe.runProgramDriver(in.hook)
	}
	unit := func() int64 {
		if in.pipe.drained() {
			return in.docsRead // the document about to be pulled
		}
		return in.docsRead - 1
	}
	return in.pipe.runTracedLoop(unit, in.hook)
}

func (in *docsInstance) measure() error {
	in.mem.before = readMem(false)
	in.wd.enter("window")
	if in.tr != nil {
		in.tr.reset()
	}
	in.m = in.rc.window(in.wd, in.pipe.work)
	err := in.drive()
	in.m.finishWork()
	in.wd.pause()
	in.mem.after = readMem(false)
	return err
}

func (in *docsInstance) finish() (*outcome, error) {
	o := newOutcome(in.m, &in.mem)
	o.counts = in.pipe.counts()
	if err := in.pipe.finish(); err != nil {
		return nil, err
	}
	in.recall.check(int(in.docsDone)-1, in.pipe.stories())
	o.fingerprint = storyFingerprint(in.pipe.stories())
	o.settleHeap(&in.mem)
	if in.tr != nil {
		o.tracers = []*tracer{in.tr}
	}
	checkEngine(o, true)
	if in.rc.FullSize {
		checkStationary(o)
	}
	checkDocsRegime(o, in.spec, &in.recall, in.rc.FullSize)
	in.discard()
	return o, nil
}

// checkDocsRegime verifies planted-story recall always and, on a full-size
// run, that the workload stayed in the regime its description promises.
func checkDocsRegime(o *outcome, spec *docsSpec, rs *recallScore, fullSize bool) {
	c := &o.counts
	o.info["recall"] = rs.recall()
	o.info["recall_samples"] = float64(rs.all)
	o.info["live_min"], o.info["live_max"] = float64(rs.minLive), float64(rs.maxLive)
	if rs.all > 0 && rs.recall() < 0.9 {
		o.failf("planted-story recall %.3f over %d samples, want ≥ 0.9", rs.recall(), rs.all)
	}
	if !fullSize {
		return
	}
	docs := float64(c.DocsIn)
	if rs.minLive < spec.MinLive || rs.maxLive > spec.MaxLive {
		o.failf("regime: live stories ranged %d–%d over %d checkpoints, want %d–%d", rs.minLive, rs.maxLive, rs.checks, spec.MinLive, spec.MaxLive)
	}
	if got := float64(c.Records) / docs; got < spec.MinRecordsPerDoc {
		o.failf("regime: %.4f lifecycle records per document, want ≥ %.4f", got, spec.MinRecordsPerDoc)
	}
	if got := float64(c.ThresholdUnits) / docs; got < spec.MinThresholdPerDoc {
		o.failf("regime: %.3f threshold units per document, want ≥ %.3f", got, spec.MinThresholdPerDoc)
	}
	if got := float64(c.RetiredPairs) / docs; got < spec.MinRetiredPerDoc {
		o.failf("regime: %.3f retired pairs per document, want ≥ %.3f", got, spec.MinRetiredPerDoc)
	}
	if want := spec.MinRenormsPerDoc * docs; float64(c.Renorms) < want {
		o.failf("regime: %d renormalisations over %d documents, want ≥ %.1f", c.Renorms, c.DocsIn, want)
	}
	if c.TrackedPairs < spec.MinTrackedPairs {
		o.failf("regime: %d tracked pairs at the end, want ≥ %d", c.TrackedPairs, spec.MinTrackedPairs)
	}
	if want := spec.MinBornPerDoc * docs; float64(c.Born) < want {
		o.failf("regime: %d story births over %d documents, want ≥ %.0f", c.Born, c.DocsIn, want)
	}
}

func (in *docsInstance) discard() {
	if in.closer != nil {
		in.closer.Close()
		in.closer = nil
	}
	if in.path != "" {
		os.Remove(in.path)
		in.path = ""
	}
	in.pipe = nil
}
