package main

import (
	"os"
	"runtime"
)

// docs-steady-par: the docs-steady document file through the parallel
// aggregator (workers = nproc) and the sharded engine (K = nproc, scoped)
// into a builder installed with SetSeqSink, driven by ShardReplay.RunBatches.

// docMark is one document in flight between the driver and the merger: the
// merger sequence number of its last tick and when the driver got hold of it.
type docMark struct {
	endSeq uint64
	t      int64
}

type parInstance struct {
	rc    *runConfig
	wd    *watchdog
	spec  *docsSpec
	path  string
	pipe  *shardPipe
	tr    *tracer // driver goroutine
	sinkT *tracer // merge goroutine
	// marks carries documents from the driver (note) to the merge goroutine
	// (onSeq). The buffer only has to exceed what the sharded engine can hold
	// in flight (QueueDepth 32 × BatchSize 128 updates ≈ 1300 documents); a
	// full channel would merely stall the driver.
	marks   chan docMark
	head    docMark
	hasHead bool

	handed  int64  // documents the driver has passed on (driver goroutine)
	stopAt  int64  // hand on this many documents, then stop (0: until the deadline)
	m       *meter // completions are recorded on the merge goroutine
	planted []plantedStory

	mem memWindow
}

func setupDocsPar(rc *runConfig, wd *watchdog, traced bool) (instance, error) {
	wd.pause()
	spec := &docsSteadySpec
	path, planted, err := writeDocFile(rc, spec, rc.Workload)
	if err != nil {
		return nil, err
	}
	in := &parInstance{rc: rc, wd: wd, spec: spec, path: path, planted: planted, marks: make(chan docMark, 1<<14)}
	if traced {
		in.tr, in.sinkT = newTracer("driver"), newTracer("merger")
	}
	in.mem.base = readMem(true)
	if in.pipe, err = newShardPipe(spec.Pipe, path, runtime.NumCPU(), in.note, in.onSeq, in.sinkT); err != nil {
		in.discard()
		return nil, err
	}
	wd.enter("warm-up")
	in.m = newMeter(0, wd, nil)
	in.stopAt = rc.warm(spec.WarmDocs)
	if err := in.drive(); err != nil {
		in.discard()
		return nil, err
	}
	wd.pause()
	return in, nil
}

// note runs on the driver goroutine for every batch it pulls.
func (in *parInstance) note(isDoc bool, endSeq uint64) {
	if isDoc {
		in.handed++
		in.marks <- docMark{endSeq: endSeq, t: nowNs()}
	}
}

// onSeq runs on the merge goroutine when the sink sees a new sequence number:
// every tick before it is fully merged, so every document that ended before
// it is complete and visible.
func (in *parInstance) onSeq(seq uint64) { in.completeBefore(seq, nowNs()) }

func (in *parInstance) completeBefore(seq uint64, now int64) {
	for {
		if !in.hasHead {
			select {
			case in.head = <-in.marks:
				in.hasHead = true
			default:
				return
			}
		}
		if in.head.endSeq >= seq {
			return
		}
		in.m.done(now, now-in.head.t)
		in.hasHead = false
	}
}

// hook runs on the driver goroutine after every batch.
func (in *parInstance) hook() error {
	if in.handed >= in.stopAt {
		return errStop
	}
	return nil
}

// drive runs until the hook stops it and everything handed on is merged; the
// documents still in flight at the final flush complete at the flush.
func (in *parInstance) drive() error {
	var err error
	if in.tr == nil {
		err = in.pipe.runProgramDriver(in.hook)
	} else {
		err = in.pipe.runTracedLoop(in.tr, func() int64 { return in.handed }, in.hook)
	}
	// The flush inside the driver synchronised with the merge goroutine, which
	// is idle now: finishing its bookkeeping from here is safe.
	in.completeBefore(^uint64(0), nowNs())
	return err
}

func (in *parInstance) measure() error {
	in.stopAt = in.handed + in.rc.Units
	in.mem.before = readMem(false)
	in.wd.enter("window")
	if in.tr != nil {
		in.tr.reset()
		in.sinkT.reset()
	}
	in.m = in.rc.window(in.wd, nil)
	in.m.queued = true
	err := in.drive()
	in.wd.pause()
	in.mem.after = readMem(false)
	return err
}

func (in *parInstance) finish() (*outcome, error) {
	o := newOutcome(in.m, &in.mem)
	o.counts = in.pipe.counts()
	if o.counts.DocsIn == 0 {
		o.counts.DocsIn = in.handed
	}
	in.pipe.finish()
	rows := in.pipe.stories()
	o.fingerprint = storyFingerprint(rows)
	o.settleHeap(&in.mem)
	if in.tr != nil {
		o.tracers = []*tracer{in.tr, in.sinkT}
	}
	checkEngine(o, true)
	// No work-based stationarity check here: the sharded engine's counters
	// cannot be read mid-window without a flush. The same document file is
	// checked on docs-steady; the wall-time ratio is reported.
	o.info["halves_wall_ratio"] = in.m.halvesRatio()
	rs := recallScore{planted: in.planted, ramp: in.spec.Ramp}
	rs.check(int(in.handed)-1, rows)
	checkDocsRegime(o, in.spec, &rs, false)
	if same, err := parEqualsSingle(in.spec, in.path, min(parVerifyDocs, in.handed)); err != nil {
		o.failf("sharded-vs-single check: %v", err)
	} else if !same {
		o.failf("final story table of the sharded pipeline differs from the single engine's on the first %d documents", min(parVerifyDocs, in.handed))
	}
	if want := in.m.units + in.rc.warm(in.spec.WarmDocs); in.handed != want {
		o.failf("handed on %d documents but %d completed", in.handed, want)
	}
	in.discard()
	return o, nil
}

func (in *parInstance) discard() {
	if in.pipe != nil {
		in.pipe.stop()
	}
	if in.path != "" {
		os.Remove(in.path)
		in.path = ""
	}
	in.pipe = nil
}

// parVerifyDocs is the prefix of the document file on which every run checks
// that the sharded pipeline's final story table equals the single engine's
// (the full-length equality of docs-steady and docs-steady-par is checked by
// the package test, where both process the same fixed number of documents).
const parVerifyDocs = 12_000

// parEqualsSingle replays the first n documents of the file through a fresh
// sharded pipeline and a fresh single-engine pipeline, closes both story
// layers at their final tick, and compares the story tables.
func parEqualsSingle(spec *docsSpec, path string, n int64) (bool, error) {
	src, closer, err := openDocFile(path)
	if err != nil {
		return false, err
	}
	defer closer.Close()
	single, err := newSinglePipe(spec.Pipe, src, nil, false, nil)
	if err != nil {
		return false, err
	}
	done := int64(0)
	err = single.runProgramDriver(func() error {
		if single.drained() {
			if done++; done >= n {
				return errStop
			}
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	if err := single.finish(); err != nil {
		return false, err
	}

	par := &parInstance{spec: spec, marks: make(chan docMark, 1<<14), stopAt: n, m: newMeter(0, nil, nil)}
	if par.pipe, err = newShardPipe(spec.Pipe, path, runtime.NumCPU(), par.note, par.onSeq, nil); err != nil {
		return false, err
	}
	defer par.pipe.stop()
	if err := par.drive(); err != nil {
		return false, err
	}
	par.pipe.finish()
	return storyFingerprint(par.pipe.stories()) == storyFingerprint(single.stories()), nil
}
