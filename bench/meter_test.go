package main

import (
	"math"
	"testing"
)

// A window on an injected clock and injected calibration readings: slices
// exclude the time the readings take, throughput is scaled by the mixed
// factor and latency percentiles by the core factor of the readings around
// each slice, and the metrics are medians over the slices.
func TestMeterPutsSlicesAtReferenceSpeed(t *testing.T) {
	const (
		units     = 3 * minSlicedUnits
		perSlice  = units / 3
		readingNs = 5_000 // what one calibration reading takes on the fake clock
	)
	now := int64(1_000_000)
	// The box runs at nominal speed during slice 0, twice as slowly during
	// slice 1 (both tables), and with a slow small table only during slice 2.
	nominal := reading{calibSmallNominalNs, calibLargeNominalNs}
	readings := []reading{
		nominal, nominal, // around slice 0
		{4 * calibSmallNominalNs, 4 * calibLargeNominalNs}, // after slice 1: √(1·4) = 2
		{calibSmallNominalNs, 4 * calibLargeNominalNs},     // after slice 2
	}
	next := 0
	m := &meter{
		maxUnits: units, sliceUnits: perSlice, slices: make([]sliceAcc, 3),
		clock: func() int64 { return now },
		calibrate: func() reading {
			now += readingNs
			r := readings[next]
			next++
			return r
		},
	}
	m.begin()
	unitNs := []int64{1000, 2000, 1500} // per-unit time as measured, by slice
	for i := int64(0); i < units; i++ {
		d := unitNs[i/perSlice]
		now += d
		over := m.done(now, d)
		if over != (i == units-1) {
			t.Fatalf("unit %d: over = %v", i, over)
		}
		if atEnd := (i+1)%perSlice == 0; (m.pause == readingNs) != atEnd {
			t.Fatalf("unit %d: pause %d", i, m.pause)
		}
	}
	if next != len(readings) {
		t.Fatalf("%d readings taken, want %d", next, len(readings))
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.02*want {
			t.Errorf("%s = %.4g, want %.4g", what, got, want)
		}
	}
	near("wall seconds (readings left out)", m.wallSeconds(), float64(perSlice)*(1000+2000+1500)/1e9)
	near("speed of slice 1", m.speed(1).mixed, 2)
	near("core speed of slice 1", m.speed(1).core, 2)
	near("core speed of slice 2", m.speed(2).core, 2) // √(4·1)
	mixed2 := math.Sqrt(4*(calibSmallNominalNs+4*calibLargeNominalNs)/(calibSmallNominalNs+calibLargeNominalNs)) / 1
	near("mixed speed of slice 2", m.speed(2).mixed, mixed2)
	// Slice rates at reference speed: 1e6, 0.5e6·2 = 1e6, 0.667e6·mixed2.
	rates := m.sliceRates()
	if len(rates) != 3 {
		t.Fatalf("%d slice rates", len(rates))
	}
	near("rate of slice 0", rates[0], 1e6)
	near("rate of slice 1", rates[1], 1e6)
	near("rate of slice 2", rates[2], 1e9/1500*mixed2)
	near("units per second (median)", m.unitsPerSecond(), 1e6)
	// Latencies at reference speed: 1000, 2000/2, 1500/2.
	near("latency p50", m.quantileNs(0.5), 1000)
	near("reference seconds", m.refSeconds(), float64(perSlice)*(1000+2000/2+1500/mixed2)/1e9)
	near("as-measured p50 over all", m.all.quantile(0.5), 1500)
}

// Without calibration every slice counts at speed factor 1.
func TestMeterUncalibrated(t *testing.T) {
	now := int64(0)
	m := &meter{maxUnits: 10, slices: make([]sliceAcc, 1), clock: func() int64 { return now }}
	m.begin()
	for i := 0; i < 10; i++ {
		now += 100
		m.done(now, 100)
	}
	if s := m.speed(0); s.core != 1 || s.mixed != 1 {
		t.Errorf("speed %+v, want 1", s)
	}
	if got := m.unitsPerSecond(); math.Abs(got-1e7) > 1 {
		t.Errorf("units per second %v, want 1e7", got)
	}
}

// A reading does the same work every time, on every lane, without touching
// the Go heap; two readings in a row agree to within the box's jitter.
func TestCalibratorReads(t *testing.T) {
	c, err := newCalibrator(2)
	if err != nil {
		t.Fatal(err)
	}
	var a, b reading
	allocs := testing.AllocsPerRun(3, func() { a, b = c.lanes[0].measure(), c.lanes[1].measure() })
	if allocs != 0 {
		t.Errorf("a reading allocates %v times", allocs)
	}
	for _, r := range []reading{a, b, c.measure()} {
		if r.small <= 0 || r.large <= 0 {
			t.Errorf("reading %+v", r)
		}
	}
	if s := speedBetween(a, b); s.core < 0.2 || s.core > 5 || s.mixed < 0.2 || s.mixed > 5 {
		t.Errorf("speed factors %+v on this box: the nominal readings are off by more than 5×", s)
	}
	if s := speedBetween(reading{}, a); s.core != 1 || s.mixed != 1 {
		t.Errorf("speed without a reading %+v, want 1", s)
	}
}
