package main

import (
	"errors"
	"strings"
	"testing"
)

func isGateFail(err error) bool {
	var ge gateError
	return errors.As(err, &ge)
}

// nsOnly builds a parsed run without allocs/op columns.
func nsOnly(m map[string][]float64) map[string]*samples {
	out := make(map[string]*samples, len(m))
	for name, ns := range m {
		out[name] = &samples{ns: ns}
	}
	return out
}

func TestParseReader(t *testing.T) {
	input := `goos: linux
BenchmarkProcessMixed-8   	    2868	    450652 ns/op	      62 B/op	       0 allocs/op
BenchmarkProcessMixed-8   	    3000	    440000 ns/op
BenchmarkOther            	     100	  12345.5 ns/op
some unrelated line
PASS
`
	got, err := parseReader("test", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if s := got["BenchmarkProcessMixed"]; len(s.ns) != 2 || s.ns[1] != 440000 || len(s.allocs) != 1 || s.allocs[0] != 0 {
		t.Fatalf("ProcessMixed samples = %+v", s)
	}
	if s := got["BenchmarkOther"]; len(s.ns) != 1 || s.ns[0] != 12345.5 || len(s.allocs) != 0 {
		t.Fatalf("Other samples = %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestGateCompare(t *testing.T) {
	base := nsOnly(map[string][]float64{"BenchmarkA": {100}, "BenchmarkB": {100}})
	var out strings.Builder

	// Within threshold passes.
	head := nsOnly(map[string][]float64{"BenchmarkA": {110}, "BenchmarkB": {90}})
	if err := gateCompare(base, head, 0.15, &out); err != nil {
		t.Fatalf("within-threshold compare failed: %v", err)
	}

	// Beyond threshold is a gate failure, not a hard error.
	head = nsOnly(map[string][]float64{"BenchmarkA": {120}, "BenchmarkB": {100}})
	err := gateCompare(base, head, 0.15, &out)
	if err == nil || !isGateFail(err) {
		t.Fatalf("regression should gate-fail, got %v", err)
	}

	// A benchmark the head run lost is a gate failure that names it, not a
	// smaller gate.
	head = nsOnly(map[string][]float64{"BenchmarkA": {100}})
	err = gateCompare(base, head, 0.15, &out)
	if err == nil || !isGateFail(err) || !strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("benchmark missing from head should gate-fail by name, got %v", err)
	}

	// A benchmark only the head run has is reported but not gated.
	out.Reset()
	head = nsOnly(map[string][]float64{"BenchmarkA": {100}, "BenchmarkB": {100}, "BenchmarkNew": {1e9}})
	if err := gateCompare(base, head, 0.15, &out); err != nil {
		t.Fatalf("head-only benchmark should not gate, got %v", err)
	}
	if !strings.Contains(out.String(), "new (not gated)") {
		t.Fatalf("head-only benchmark not reported:\n%s", out.String())
	}

	// An empty base is a usage error, not a gate failure.
	err = gateCompare(nil, head, 0.15, &out)
	if err == nil || isGateFail(err) {
		t.Fatalf("empty base should hard-fail, got %v", err)
	}
}

// TestGateCompareZeroBase pins the division guard: a zero base median (a
// truncated or garbage bench line) must be reported and skipped, never
// divided — before the guard it produced a ±Inf delta.
func TestGateCompareZeroBase(t *testing.T) {
	base := nsOnly(map[string][]float64{"BenchmarkZero": {0}, "BenchmarkA": {100}})
	head := nsOnly(map[string][]float64{"BenchmarkZero": {500}, "BenchmarkA": {100}})
	var out strings.Builder
	if err := gateCompare(base, head, 0.15, &out); err != nil {
		t.Fatalf("zero base should be skipped, got %v", err)
	}
	if !strings.Contains(out.String(), "skipped (zero base)") {
		t.Fatalf("missing skip marker in report:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Inf") || strings.Contains(out.String(), "NaN") {
		t.Fatalf("non-finite delta leaked into report:\n%s", out.String())
	}
}

// TestGateCompareAllocs pins the allocs/op gate: the median allocs/op may rise
// by at most the regression fraction or by less than one allocation; a
// zero-alloc benchmark fails at its first allocation; a run without
// -benchmem columns gates ns/op alone.
func TestGateCompareAllocs(t *testing.T) {
	run := func(allocs ...float64) map[string]*samples {
		ns := make([]float64, len(allocs))
		for i := range ns {
			ns[i] = 100
		}
		return map[string]*samples{"BenchmarkA": {ns: ns, allocs: allocs}}
	}
	var out strings.Builder
	for _, c := range []struct {
		name       string
		base, head map[string]*samples
		fail       bool
	}{
		{"unchanged", run(20, 20, 21), run(20, 21, 20), false},
		{"within the fraction", run(20, 20, 20), run(23, 23, 23), false},
		{"beyond the fraction", run(20, 20, 20), run(24, 24, 24), true},
		{"beyond the fraction by less than one", run(2, 2, 2), run(2.5, 2.5, 2.5), false},
		{"first allocation", run(0, 0, 0), run(1, 1, 1), true},
		{"one noisy sample", run(20, 20, 20), run(20, 40, 20), false},
		{"fewer", run(20, 20, 20), run(10, 10, 10), false},
		{"head without -benchmem", run(0, 0, 0), nsOnly(map[string][]float64{"BenchmarkA": {100}}), false},
	} {
		out.Reset()
		err := gateCompare(c.base, c.head, 0.15, &out)
		if c.fail != (err != nil) || err != nil && (!isGateFail(err) || !strings.Contains(err.Error(), "allocs/op")) {
			t.Errorf("%s: gate returned %v, want failure %v\n%s", c.name, err, c.fail, out.String())
		}
	}
	base, err := parseReader("base", strings.NewReader("BenchmarkA-8  100  100 ns/op  0 B/op  0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	head, err := parseReader("head", strings.NewReader("BenchmarkA-8  100  100 ns/op  16 B/op  1 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := gateCompare(base, head, 0.15, &out); err == nil || !isGateFail(err) {
		t.Fatalf("parsed runs: a zero-alloc benchmark that allocates passed the gate (%v)", err)
	}
}
