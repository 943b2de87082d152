package main

import (
	"bytes"
	"os"
	"testing"
)

// /BENCHMARK.json is exactly what the program prints with -benchmark-json:
// the file the driver reads and the tables the program reports from describe
// the same benchmark. Regenerate with
//
//	bash bench/run.sh -benchmark-json > BENCHMARK.json
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if want := benchmarkJSON(); !bytes.Equal(data, want) {
		t.Errorf("BENCHMARK.json differs from -benchmark-json output:\n%s", want)
	}
}

// The contract's limits on names, units and reasons.
func TestBenchmarkJSONLimits(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if n == "" || len(n) > 64 || seen[n] {
			t.Errorf("name %q is empty, longer than 64 or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len([]rune(w.Why)) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len([]rune(w.Why)))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 || len(d.Unit) > 16 {
			t.Errorf("%s: bound %v unit %q", d.Name, d.Bound, d.Unit)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
		if len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	if !hasSetup || len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("setup_s %v, %d workloads, %d end-to-end, %d per-layer", hasSetup, len(workloads), len(endToEnd), len(perLayer))
	}
	if len(benchmarkJSON()) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(benchmarkJSON()))
	}
}
