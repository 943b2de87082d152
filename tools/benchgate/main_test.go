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
	if len(got["BenchmarkProcessMixed"]) != 2 || got["BenchmarkProcessMixed"][1] != 440000 {
		t.Fatalf("ProcessMixed samples = %v", got["BenchmarkProcessMixed"])
	}
	if len(got["BenchmarkOther"]) != 1 || got["BenchmarkOther"][0] != 12345.5 {
		t.Fatalf("Other samples = %v", got["BenchmarkOther"])
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
	base := map[string][]float64{"BenchmarkA": {100}, "BenchmarkB": {100}}
	var out strings.Builder

	// Within threshold passes.
	head := map[string][]float64{"BenchmarkA": {110}, "BenchmarkB": {90}}
	if err := gateCompare(base, head, 0.15, &out); err != nil {
		t.Fatalf("within-threshold compare failed: %v", err)
	}

	// Beyond threshold is a gate failure, not a hard error.
	head = map[string][]float64{"BenchmarkA": {120}, "BenchmarkB": {100}}
	err := gateCompare(base, head, 0.15, &out)
	if err == nil || !isGateFail(err) {
		t.Fatalf("regression should gate-fail, got %v", err)
	}

	// A benchmark the head run lost is a gate failure that names it, not a
	// smaller gate.
	head = map[string][]float64{"BenchmarkA": {100}}
	err = gateCompare(base, head, 0.15, &out)
	if err == nil || !isGateFail(err) || !strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("benchmark missing from head should gate-fail by name, got %v", err)
	}

	// A benchmark only the head run has is reported but not gated.
	out.Reset()
	head = map[string][]float64{"BenchmarkA": {100}, "BenchmarkB": {100}, "BenchmarkNew": {1e9}}
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
	base := map[string][]float64{"BenchmarkZero": {0}, "BenchmarkA": {100}}
	head := map[string][]float64{"BenchmarkZero": {500}, "BenchmarkA": {100}}
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
