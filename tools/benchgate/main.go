// Command benchgate is the CI benchmark regression gate: it parses two `go
// test -bench` output files (base and head), compares the median ns/op of
// every benchmark of the base run, and exits non-zero if any regresses by
// more than the allowed fraction or is missing from the head run.
//
// benchstat produces the human-readable statistical report in the same CI
// job; benchgate exists because a gate needs a stable exit code, not a
// formatted table. It deliberately parses the raw `go test -bench` line
// format (stable since Go 1.x) rather than benchstat's output.
//
// Usage:
//
//	benchgate -base base.txt -head head.txt [-max-regress 0.15]
//
// Exit codes: 0 pass, 1 gate failure, 2 usage/IO/parse error.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// gateError marks a failed gate (exit 1) as opposed to an unreadable or
// malformed input (exit 2).
type gateError struct{ msg string }

func (e gateError) Error() string { return e.msg }

func gateFailf(format string, args ...any) error {
	return gateError{msg: fmt.Sprintf(format, args...)}
}

// benchLine matches e.g.
//
//	BenchmarkProcessMixed-8   2868   450652 ns/op   62 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parse returns benchmark name → observed ns/op samples.
func parse(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseReader(path, f)
}

func parseReader(path string, f io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op in %q: %v", path, sc.Text(), err)
		}
		out[m[1]] = append(out[m[1]], v)
	}
	return out, sc.Err()
}

// median is used instead of the mean so one noisy CI sample cannot flip the
// gate in either direction.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gateCompare applies the regression gate to two parsed bench runs, writing
// the per-benchmark report to w. Every benchmark of the base run is gated: one
// that the head run no longer reports (it panicked, was renamed, or fell out
// of the CI regex) fails the gate instead of silently shrinking it. A
// benchmark only the head run reports has no baseline and is listed ungated.
func gateCompare(base, head map[string][]float64, maxRegress float64, w io.Writer) error {
	if len(base) == 0 {
		return errors.New("no benchmarks in base")
	}
	names := make([]string, 0, len(base)+len(head))
	for name := range base {
		names = append(names, name)
	}
	for name := range head {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		short := strings.TrimPrefix(name, "Benchmark")
		if _, ok := base[name]; !ok {
			fmt.Fprintf(w, "%-40s base=%12s        head=%12.0f ns/op  new (not gated)\n", short, "-", median(head[name]))
			continue
		}
		if _, ok := head[name]; !ok {
			fmt.Fprintf(w, "%-40s base=%12.0f ns/op  head=%12s        MISSING\n", short, median(base[name]), "-")
			failures = append(failures, name+" missing from head")
			continue
		}
		b, h := median(base[name]), median(head[name])
		// A zero base median is measurement garbage (a broken or truncated
		// bench line), not a real 0 ns/op baseline; dividing by it would turn
		// the delta into ±Inf and poison the report, so the pair is reported
		// but not gated.
		if b == 0 {
			fmt.Fprintf(w, "%-40s base=%12.0f ns/op  head=%12.0f ns/op  delta=   n/a  skipped (zero base)\n",
				short, b, h)
			continue
		}
		delta := (h - b) / b
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s %+.1f%%", name, 100*delta))
		}
		fmt.Fprintf(w, "%-40s base=%12.0f ns/op  head=%12.0f ns/op  delta=%+6.1f%%  %s\n",
			short, b, h, 100*delta, status)
	}
	if len(failures) > 0 {
		return gateFailf("ns/op gate (max regression %.0f%%) failed: %s", 100*maxRegress, strings.Join(failures, "; "))
	}
	return nil
}

func main() {
	basePath := flag.String("base", "", "bench output of the base revision")
	headPath := flag.String("head", "", "bench output of the head revision")
	maxRegress := flag.Float64("max-regress", 0.15, "maximum allowed ns/op regression as a fraction (0.15 = +15%)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		var ge gateError
		if errors.As(err, &ge) {
			os.Exit(1)
		}
		os.Exit(2)
	}

	if *basePath == "" || *headPath == "" {
		fail(errors.New("-base and -head are required"))
	}
	base, err := parse(*basePath)
	if err != nil {
		fail(err)
	}
	head, err := parse(*headPath)
	if err != nil {
		fail(err)
	}
	if err := gateCompare(base, head, *maxRegress, os.Stdout); err != nil {
		fail(err)
	}
}
