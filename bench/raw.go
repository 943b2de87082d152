package main

// raw-churn: pre-generated sliding-window edge updates, one closed-loop
// caller, straight into core.Engine.Process with a CountingSink.

type rawInstance struct {
	rc      *runConfig
	wd      *watchdog
	updates []Update
	warm    int64
	eng     *rawEngine
	tr      *tracer
	m       *meter
	mem     memWindow
}

func setupRaw(rc *runConfig, wd *watchdog, traced bool) (instance, error) {
	wd.pause()
	warm := rc.warm(rawWarmupUpdate)
	updates, _ := genRaw(rc.Seed, int(rc.Units+warm+rawWindow)/2+1)
	in := &rawInstance{rc: rc, wd: wd, updates: updates, warm: warm}
	if traced {
		in.tr = newTracer("driver")
	}
	in.mem.base = readMem(true)
	eng, err := newRawEngine()
	if err != nil {
		return nil, err
	}
	in.eng = eng
	wd.enter("warm-up")
	for i, u := range updates[:warm] {
		eng.process(u)
		wd.tick(nowNs(), int64(i))
	}
	wd.pause()
	return in, nil
}

func (in *rawInstance) measure() error {
	todo := in.updates[in.warm:][:in.rc.Units]
	in.mem.before = readMem(false)
	in.wd.enter("window")
	m := in.rc.window(in.wd, in.eng.work)
	in.m = m
	prev := m.start
	if in.tr == nil {
		for _, u := range todo {
			in.eng.process(u)
			now := nowNs()
			if m.done(now, now-prev) {
				break
			}
			prev = now + m.pause
		}
	} else {
		tr := in.tr
		for i, u := range todo {
			tr.setUnit(int64(i))
			tr.begin(lDriver)
			tr.begin(lCoreUpdate)
			in.eng.process(u)
			tr.end()
			now := nowNs()
			stop := m.done(now, now-prev)
			tr.exclude(m.pause)
			tr.end()
			if stop {
				break
			}
			prev = now + m.pause
		}
	}
	m.finishWork()
	in.wd.pause()
	in.mem.after = readMem(false)
	return nil
}

func (in *rawInstance) finish() (*outcome, error) {
	o := newOutcome(in.m, &in.mem)
	o.counts = in.eng.counts()
	o.settleHeap(&in.mem)
	o.fingerprint = uint64(o.counts.OutputDense)
	if in.tr != nil {
		o.tracers = []*tracer{in.tr}
	}
	checkEngine(o, false)
	if in.rc.FullSize {
		checkStationary(o)
	}
	events := float64(o.counts.Became + o.counts.Ceased)
	o.info["events_per_update"] = events / float64(o.counts.UpdatesOut)
	if in.rc.FullSize && o.info["events_per_update"] < 1 {
		o.failf("regime: %.2f became/ceased events per update, want ≥ 1", o.info["events_per_update"])
	}
	in.discard()
	return o, nil
}

func (in *rawInstance) discard() { in.updates, in.eng = nil, nil }
