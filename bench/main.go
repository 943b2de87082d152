// Command bench is the repository's benchmark: five named workloads over the
// documents→stories pipeline, every one reporting the same end-to-end metrics
// (untraced run, the program's own drivers) and the same per-layer metrics
// (a second, traced run through the bench's instrumented loop). See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var rc runConfig
	var seed uint64
	var trace int
	var aa int
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&rc.Workload, "workload", "", "workload to run (empty: the whole suite, one child process per workload): "+workloadNames())
	fs.Uint64Var(&seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&rc.Seconds, "seconds", runSeconds, "nominal length of the measured window: it holds the workload's rate × seconds units")
	fs.IntVar(&trace, "trace", 0, "1: also do the traced run and print the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&rc.OutDir, "out", "bench/out", "directory for generated inputs, WAL directories and trace files")
	fs.IntVar(&aa, "aa", 0, "A/A mode: run the whole suite this many times (≥ 2), alternating workload order, and compare")
	printJSON := fs.Bool("benchmark-json", false, "print BENCHMARK.json as this program defines it (command, paths, workloads, metrics) and exit")
	fs.Parse(os.Args[1:])
	if *printJSON {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if fs.NArg() > 0 {
		fatalf("unexpected argument %q", fs.Arg(0))
	}
	if rc.Seconds <= 0 || trace < 0 || trace > 1 {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	rc.Seed, rc.Trace, rc.SetupRuns = seed, trace == 1, setupRuns

	if rc.Workload == "" {
		os.Exit(runSuite(rc, aa))
	}
	res, err := runWorkload(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%-16s FAILED  %v\n", rc.Workload, err)
		os.Exit(1)
	}
	printHuman(os.Stderr, res)
	line, err := json.Marshal(contractResult(res))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// runSeconds is the window length BENCHMARK.json asks the driver to pass.
const runSeconds = 10

// setupRuns is how often every run sets the workload up: the median of the
// set-up times is setup_s, the last set-up is the one measured.
const setupRuns = 5

// benchmarkJSON renders the benchmark's definition in the contract's schema;
// /BENCHMARK.json is this output, and metrics_test.go keeps the two equal.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	def := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		def.Workloads = append(def.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		def.EndToEnd = append(def.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		def.PerLayer = append(def.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(def, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	return append(out, '\n')
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// contractLine is the machine-readable result of one run: exactly the keys
// the benchmark contract names.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractResult(r *result) contractLine {
	defs, vals := endToEnd, r.EndToEnd
	if r.Config.Trace {
		defs, vals = perLayer, r.PerLayer
	}
	line := contractLine{
		Correct:   len(r.Failures) == 0,
		Attempted: max(r.Attempted, 1),
		Failed:    int64(len(r.Failures)),
		Metrics:   make(map[string]contractMetric, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.Name] = contractMetric{Value: vals[d.Name], Unit: d.Unit}
	}
	return line
}

// printHuman writes the table a person reads: the run's identity, every
// metric by name with its unit, the sample counts, and any failure.
func printHuman(w *os.File, r *result) {
	u := r.Untraced
	fmt.Fprintf(w, "== %s  seed=%d  gomaxprocs=%d nproc=%d %s  window=%.2fs units=%d (%ss)  set-ups=%v at speed factor %.3f\n",
		r.Def.Name, r.Config.Seed, r.GoMaxProcs, runtime.NumCPU(), runtime.Version(),
		u.meter.wallSeconds(), u.meter.units, r.Def.Unit, roundAll(r.SetupS), r.SetupSpeed)
	fmt.Fprintf(w, "   latency samples=%d  slices=%d  speed factor=%.3f  as measured: %.0f units/s p50=%.1fus p99=%.1fus max=%.0fus\n",
		u.meter.all.n, len(u.meter.sliceRates()), u.meter.speedFactor(),
		float64(u.meter.units)/u.meter.wallSeconds(), u.meter.all.quantile(0.5)/1e3, u.meter.all.quantile(0.99)/1e3, float64(u.meter.all.max)/1e3)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-34s %14.4f %-7s (%s is better, bound %.0f%%)\n", d.Name, r.EndToEnd[d.Name], d.Unit, d.Better, 100*d.Bound)
	}
	if r.Config.Trace {
		for _, d := range perLayer {
			fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
		}
	}
	keys := make([]string, 0, len(u.info))
	for k := range u.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%.4g", k, u.info[k])
	}
	fmt.Fprintf(w, "   checks:%s  events=%d records=%d fingerprint=%016x\n", sb.String(), u.counts.Events, u.counts.Records, u.fingerprint)
	if len(r.Failures) == 0 {
		fmt.Fprintf(w, "   attempted=%d failed=0  OK\n", r.Attempted)
		return
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d\n", r.Attempted, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}
