package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testUnits is 1/200 of the window a 10-second run measures.
func testUnits(def *workloadDef) int64 { return int64(def.Rate * 10 / 200) }

func runSmall(t *testing.T, name string, seed uint64, trace bool) *result {
	t.Helper()
	def := findWorkload(name)
	res, err := runWorkload(runConfig{
		Workload: name, Seed: seed, Units: testUnits(def), Trace: trace, SetupRuns: 1, Quick: true,
		OutDir: t.TempDir(),
		abort:  func(reason string) { t.Errorf("%s: %s", name, reason) },
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// Every workload completes at 1/200 scale with zero failed operations, its
// traced run does the same work as its untraced one, every declared metric is
// reported, and the trace file is written.
func TestWorkloadsSmall(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			res := runSmall(t, def.Name, 1, true)
			for _, f := range res.Failures {
				t.Errorf("failed operation: %s", f)
			}
			if res.Attempted < testUnits(def) {
				t.Errorf("attempted %d operations, want ≥ %d", res.Attempted, testUnits(def))
			}
			if got := res.Untraced.meter.units; got != testUnits(def) {
				t.Errorf("measured %d units, want %d", got, testUnits(def))
			}
			for _, d := range endToEnd {
				if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v", d.Name, v)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d declared", len(res.PerLayer), len(perLayer))
			}
			if _, err := os.Stat(filepath.Join(res.Config.OutDir, "trace-"+def.Name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
			left, _ := filepath.Glob(filepath.Join(res.Config.OutDir, "*"))
			if len(left) != 1 {
				t.Errorf("left behind in the output directory: %v", left)
			}
		})
	}
}

// The same seed gives identical exact counts and fingerprints; another seed
// gives another input. docs-steady-par ends with the story table docs-steady
// ends with.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"raw-churn", "docs-steady", "docs-decay"} {
		a, b, c := runSmall(t, name, 5, false), runSmall(t, name, 5, false), runSmall(t, name, 6, false)
		for _, r := range []*result{a, b, c} {
			r.Untraced.counts.IndexError = "" // names whichever set a map iteration reached first
		}
		if a.Untraced.counts != b.Untraced.counts || a.Untraced.fingerprint != b.Untraced.fingerprint {
			t.Errorf("%s: same seed, different counts or fingerprint:\n%+v\n%+v", name, a.Untraced.counts, b.Untraced.counts)
		}
		if a.Untraced.counts == c.Untraced.counts {
			t.Errorf("%s: seeds 5 and 6 gave identical counts", name)
		}
	}
	single, par := runSmall(t, "docs-steady", 5, false), runSmall(t, "docs-steady-par", 5, false)
	if single.Untraced.fingerprint != par.Untraced.fingerprint {
		t.Errorf("final story table differs: docs-steady %016x, docs-steady-par %016x", single.Untraced.fingerprint, par.Untraced.fingerprint)
	}
	if s, p := single.Untraced.counts, par.Untraced.counts; s.Events != p.Events || s.Records != p.Records || s.Born != p.Born {
		t.Errorf("docs-steady events/records/born %d/%d/%d, docs-steady-par %d/%d/%d", s.Events, s.Records, s.Born, p.Events, p.Records, p.Born)
	}
}

// adapter.go is the only file that imports the program's packages.
func TestOnlyAdapterImportsTheProgram(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(imp.Path.Value, `"dyndens/`) && f != "adapter.go" {
				t.Errorf("%s imports %s: every call into the program belongs in adapter.go", f, imp.Path.Value)
			}
		}
	}
}
