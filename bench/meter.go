package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// meter measures one window of a fixed number of units: it is told about
// every completed unit (with the unit's latency) and keeps, per slice of
// equal work, a latency histogram, the time the slice took and how fast the
// box was while it ran.
//
// The published throughput and percentiles are MEDIANS OVER SLICES AT
// REFERENCE SPEED: the window's units are cut into equal runs, after each of
// which the meter takes a calibration reading (calib.go); a slice's units/s is
// multiplied, and its latency percentiles divided, by the speed factors of the
// readings around it, and the metric is the median over the slices. The
// median keeps a stall of the box (a descheduled vCPU) out of the result, the
// factor keeps out the box's slow phases, which last longer than a run. See
// README "Noise".
type meter struct {
	start      int64 // ns, window start (after the reading taken before it)
	maxUnits   int64 // the window ends after this many units (0: the caller decides)
	sliceUnits int64 // units per slice (0: one slice)
	slices     []sliceAcc
	all        hist // every latency as measured, not rescaled
	units      int64
	end        int64 // ns of the last completion
	wd         *watchdog

	// calibrate takes one calibration reading (nil: the window is not
	// calibrated and every slice counts at speed factor 1). first is the
	// reading taken just before the window; pause is how long the last call
	// of done spent calibrating, for callers that stamp the next unit's start
	// themselves.
	calibrate func() reading
	first     reading
	pause     int64
	clock     func() int64 // nowNs; injected in tests
	// queued: a unit spends its latency waiting in queues between goroutines,
	// so the latency follows the pipeline's throughput and is scaled by the
	// mixed factor instead of the core factor (calib.go).
	queued bool

	// work reads a deterministic work counter of the program (engine
	// explorations + events); it is sampled at the start, the middle and the
	// end of the window for the stationarity check.
	work                         func() int64
	workStart, workMid, workDone int64
}

type sliceAcc struct {
	units int64
	start int64 // ns: the window's start, or the end of the reading after the previous slice
	end   int64 // ns of the slice's last completion
	lat   hist
	calib reading // taken after the slice (zero: none)
}

// newMeter starts an unsliced, uncalibrated window of maxUnits units now:
// warm-up phases and the package tests' small windows.
func newMeter(maxUnits int64, wd *watchdog, work func() int64) *meter {
	return newWindow(maxUnits, 1, nil, wd, work)
}

// newWindow starts a window of maxUnits units cut into the given number of
// slices, with a calibration reading before it and after every slice.
// Windows below minSlicedUnits are one slice.
func newWindow(maxUnits int64, slices int, calibrate func() reading, wd *watchdog, work func() int64) *meter {
	m := &meter{maxUnits: maxUnits, wd: wd, work: work, calibrate: calibrate, clock: nowNs}
	if work != nil {
		m.workStart = work()
	}
	if maxUnits >= minSlicedUnits && slices > 1 {
		m.sliceUnits = (maxUnits + int64(slices) - 1) / int64(slices)
		m.slices = make([]sliceAcc, slices)
	} else {
		m.slices = make([]sliceAcc, 1)
	}
	m.begin()
	return m
}

// begin takes the reading before the window and starts the clock.
func (m *meter) begin() {
	if m.calibrate != nil {
		m.first = m.calibrate()
	}
	m.start = m.clock()
	m.end = m.start
	m.slices[0].start = m.start
}

const minSlicedUnits = 20_000

// done records one completed unit and reports whether the window is over. At
// the end of a slice it takes the calibration reading; the time that takes
// belongs to no slice.
func (m *meter) done(now, latency int64) bool {
	i := 0
	if m.sliceUnits > 0 {
		i = min(int(m.units/m.sliceUnits), len(m.slices)-1)
	}
	s := &m.slices[i]
	s.units++
	s.end = now
	s.lat.add(latency)
	m.all.add(latency)
	m.units++
	m.end = now
	m.pause = 0
	if m.wd != nil {
		m.wd.tick(now, m.units)
	}
	if m.work != nil && m.units == m.maxUnits/2 {
		m.workMid = m.work()
	}
	over := m.maxUnits > 0 && m.units >= m.maxUnits
	if m.calibrate != nil && (over || (m.sliceUnits > 0 && s.units == m.sliceUnits)) {
		s.calib = m.calibrate()
		resume := m.clock()
		m.pause = resume - now
		if i+1 < len(m.slices) {
			m.slices[i+1].start = resume
		}
	} else if m.sliceUnits > 0 && s.units == m.sliceUnits && i+1 < len(m.slices) {
		m.slices[i+1].start = now
	}
	return over
}

// speed is the box's speed while slice i ran (factors 1 without calibration).
func (m *meter) speed(i int) speed {
	before := m.first
	if i > 0 {
		before = m.slices[i-1].calib
	}
	return speedBetween(before, m.slices[i].calib)
}

// latencySpeed is the factor slice i's latencies are divided by.
func (m *meter) latencySpeed(i int) float64 {
	if m.queued {
		return m.speed(i).mixed
	}
	return m.speed(i).core
}

// finishWork samples the work counter at the end of the window.
func (m *meter) finishWork() {
	if m.work != nil {
		m.workDone = m.work()
	}
}

// workRatio is the work the second half of the window's units took over the
// work of the first half (1 when unknown).
func (m *meter) workRatio() float64 {
	if first := m.workMid - m.workStart; first > 0 && m.workDone > m.workMid {
		return float64(m.workDone-m.workMid) / float64(first)
	}
	return 1
}

// sliceSeconds is how long slice i took, as measured.
func (m *meter) sliceSeconds(i int) float64 {
	return float64(m.slices[i].end-m.slices[i].start) / 1e9
}

// wallSeconds is the window's length as measured, calibration pauses left
// out; refSeconds is the same at reference speed.
func (m *meter) wallSeconds() float64 {
	sum := 0.0
	for i := range m.slices {
		if m.slices[i].units > 0 {
			sum += m.sliceSeconds(i)
		}
	}
	return sum
}

func (m *meter) refSeconds() float64 {
	sum := 0.0
	for i := range m.slices {
		if m.slices[i].units > 0 {
			sum += m.sliceSeconds(i) / m.speed(i).mixed
		}
	}
	return sum
}

// bytes is the meter's own heap footprint, which the state-heap metric
// leaves out.
func (m *meter) bytes() int64 { return int64(len(m.slices)) * int64(unsafe.Sizeof(sliceAcc{})) }

// sliceRates returns every full slice's throughput in units per second at
// reference speed.
func (m *meter) sliceRates() []float64 {
	var out []float64
	for i := range m.slices {
		s := &m.slices[i]
		if s.units > 0 && s.end > s.start && (m.sliceUnits == 0 || s.units == m.sliceUnits) {
			out = append(out, float64(s.units)/m.sliceSeconds(i)*m.speed(i).mixed)
		}
	}
	return out
}

// unitsPerSecond is the median slice throughput.
func (m *meter) unitsPerSecond() float64 { return median(m.sliceRates()) }

// quantileNs is the median over slices of the slice's q-quantile latency at
// reference speed.
func (m *meter) quantileNs(q float64) float64 {
	xs := make([]float64, 0, len(m.slices))
	for i := range m.slices {
		if s := &m.slices[i]; s.lat.n > 0 {
			xs = append(xs, s.lat.quantile(q)/m.latencySpeed(i))
		}
	}
	return median(xs)
}

// speedFactor is the median over slices of the box's (mixed) speed factor.
func (m *meter) speedFactor() float64 {
	xs := make([]float64, 0, len(m.slices))
	for i := range m.slices {
		if m.slices[i].units > 0 {
			xs = append(xs, m.speed(i).mixed)
		}
	}
	return median(xs)
}

// halvesRatio is the time the second half of the window's slices took over
// that of the first half (1 when the window is not sliced). On a shared box
// it mostly shows the box; workRatio is the noise-free version.
func (m *meter) halvesRatio() float64 {
	n := len(m.slices)
	if m.sliceUnits == 0 || m.slices[n-1].units == 0 {
		return 1
	}
	first, second := 0.0, 0.0
	for i := range m.slices {
		if i < n/2 {
			first += m.sliceSeconds(i)
		} else {
			second += m.sliceSeconds(i)
		}
	}
	if first <= 0 {
		return 1
	}
	return second / first
}

// ---------------------------------------------------------------------------

// watchdog aborts the process when no unit completes for watchdogLimit: a
// regime cliff (see README) can make a single unit take minutes, and nothing
// inside the unit can be interrupted. tick is one atomic store per unit.
type watchdog struct {
	lastNs atomic.Int64
	unit   atomic.Int64
	phase  atomic.Value // string
	stop   chan struct{}
	done   chan struct{}
}

const watchdogLimit = 2 * time.Second

func startWatchdog(abort func(reason string)) *watchdog {
	w := &watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	w.lastNs.Store(nowNs())
	w.phase.Store("setup")
	go func() {
		defer close(w.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if idle := time.Duration(nowNs() - w.lastNs.Load()); idle > watchdogLimit {
					abort(fmt.Sprintf("watchdog: unit %d of phase %q has been running for %v (limit %v)",
						w.unit.Load()+1, w.phase.Load(), idle.Round(time.Millisecond), watchdogLimit))
					return
				}
			}
		}
	}()
	return w
}

func (w *watchdog) tick(now, unit int64) {
	w.lastNs.Store(now)
	w.unit.Store(unit)
}

// enter names the phase that follows and restarts the idle clock; phases
// that process no units (input generation, file writing) pause the watchdog
// with pause/enter around them.
func (w *watchdog) enter(phase string) {
	w.phase.Store(phase)
	w.unit.Store(0)
	w.lastNs.Store(nowNs())
}

// pause stops the idle clock until the next enter or tick.
func (w *watchdog) pause() { w.lastNs.Store(1 << 62) }

func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

// ---------------------------------------------------------------------------

// memReading is the pair of runtime readings the memory metrics come from.
type memReading struct {
	mallocs uint64
	heap    uint64
}

// readMem reads the allocation counter; with gc it first forces a collection
// so heap is the live heap.
func readMem(gc bool) memReading {
	if gc {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's finalizers and sweep released
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memReading{mallocs: ms.Mallocs, heap: ms.HeapAlloc}
}
