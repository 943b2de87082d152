package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// suiteLine is what the suite prints on stdout per workload and trace mode:
// the contract's result object, labelled.
type suiteLine struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Trace    int          `json:"trace"`
	Result   contractLine `json:"result"`
}

// runChild runs one workload in its own process (so heap and GC state do not
// leak between workloads), passing its human table through to stderr and
// returning the machine-readable last line of its stdout.
func runChild(rc runConfig, workload string, trace bool) (contractLine, error) {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(rc.Seed, 10),
		"-seconds", strconv.FormatFloat(rc.Seconds, 'g', -1, 64),
		"-out", rc.OutDir,
		"-trace", "0",
	}
	if trace {
		args[len(args)-1] = "1"
	}
	cmd := exec.Command(os.Args[0], args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	var line contractLine
	if err := cmd.Run(); err != nil {
		return line, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return line, nil
}

// runSuite runs every workload — untraced for the end-to-end metrics, and
// with rc.Trace a second, traced invocation for the per-layer ones — and
// returns the process exit code. With aa ≥ 2 the end-to-end suite is run aa
// times, alternating workload order, and every metric × workload is compared
// against its bound.
func runSuite(rc runConfig, aa int) int {
	if aa == 1 || aa < 0 {
		fatalf("-aa needs at least 2 runs")
	}
	rounds := max(aa, 1)
	results := make([]map[string]contractLine, rounds)
	failed := false
	for round := 0; round < rounds; round++ {
		results[round] = map[string]contractLine{}
		order := slices.Clone(workloads)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		traces := []bool{false}
		if rc.Trace && aa == 0 {
			traces = append(traces, true)
		}
		for _, def := range order {
			for _, trace := range traces {
				line, err := runChild(rc, def.Name, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%-16s FAILED  %v\n", def.Name, err)
					failed = true
					continue
				}
				if !trace {
					results[round][def.Name] = line
				}
				failed = failed || !line.Correct
				t := 0
				if trace {
					t = 1
				}
				out, _ := json.Marshal(suiteLine{Workload: def.Name, Seed: rc.Seed, Trace: t, Result: line})
				fmt.Println(string(out))
			}
		}
	}
	if aa > 0 && !compareAA(results) {
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// compareAA prints, per metric × workload, the values of the first and the
// last round, the last relative to the first and the bound, and reports
// whether every difference — in either direction, since both rounds ran the
// same code — is within its bound.
func compareAA(rounds []map[string]contractLine) bool {
	first, last := rounds[0], rounds[len(rounds)-1]
	ok := true
	fmt.Fprintf(os.Stderr, "\nA/A: the same code, run %d times\n", len(rounds))
	fmt.Fprintf(os.Stderr, "%-16s %-16s %14s %14s %8s %7s\n", "workload", "metric", "first", "last", "diff", "bound")
	for _, def := range workloads {
		a, aok := first[def.Name]
		b, bok := last[def.Name]
		if !aok || !bok {
			fmt.Fprintf(os.Stderr, "%-16s missing\n", def.Name)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / va
			}
			verdict := ""
			if diff > d.Bound || diff < -d.Bound {
				verdict = "  OUTSIDE"
				ok = false
			}
			fmt.Fprintf(os.Stderr, "%-16s %-16s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", def.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}
