// Command benchgate is the CI benchmark regression gate: it parses two `go
// test -bench` output files (base and head), compares the median ns/op of
// every benchmark of the base run, and exits non-zero if any regresses by
// more than the allowed fraction or is missing from the head run. Where both
// runs report allocs/op (-benchmem), a median that rises by more than the
// same fraction and by at least one allocation fails the gate too.
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
//
// and allocsCol its allocs/op column, present under -benchmem.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)
	allocsCol = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

// samples are one benchmark's observations: ns/op from every line, allocs/op
// from the lines that carry it.
type samples struct{ ns, allocs []float64 }

// parse returns benchmark name → observed samples.
func parse(path string) (map[string]*samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseReader(path, f)
}

func parseReader(path string, f io.Reader) (map[string]*samples, error) {
	out := make(map[string]*samples)
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
		s := out[m[1]]
		if s == nil {
			s = new(samples)
			out[m[1]] = s
		}
		s.ns = append(s.ns, v)
		if a := allocsCol.FindStringSubmatch(sc.Text()); a != nil {
			v, err := strconv.ParseFloat(a[1], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad allocs/op in %q: %v", path, sc.Text(), err)
			}
			s.allocs = append(s.allocs, v)
		}
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
// allocs/op is gated where both runs report it: a median above the base's by
// more than maxRegress and by at least one allocation fails, so a benchmark
// that allocated nothing fails at its first allocation.
func gateCompare(base, head map[string]*samples, maxRegress float64, w io.Writer) error {
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
			fmt.Fprintf(w, "%-40s base=%12s        head=%12.0f ns/op  new (not gated)\n", short, "-", median(head[name].ns))
			continue
		}
		if _, ok := head[name]; !ok {
			fmt.Fprintf(w, "%-40s base=%12.0f ns/op  head=%12s        MISSING\n", short, median(base[name].ns), "-")
			failures = append(failures, name+" missing from head")
			continue
		}
		if bs, hs := base[name].allocs, head[name].allocs; len(bs) > 0 && len(hs) > 0 {
			b, h := median(bs), median(hs)
			status := "ok"
			if h > b*(1+maxRegress) && h-b >= 1 {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s allocs/op %g → %g", name, b, h))
			}
			fmt.Fprintf(w, "%-40s base=%12g allocs/op  head=%12g allocs/op  %s\n", short, b, h, status)
		}
		b, h := median(base[name].ns), median(head[name].ns)
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
		return gateFailf("ns/op and allocs/op gate (max regression %.0f%%) failed: %s", 100*maxRegress, strings.Join(failures, "; "))
	}
	return nil
}

func main() {
	basePath := flag.String("base", "", "bench output of the base revision")
	headPath := flag.String("head", "", "bench output of the head revision")
	maxRegress := flag.Float64("max-regress", 0.15, "maximum allowed ns/op and allocs/op regression as a fraction (0.15 = +15%)")
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
