package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The golden-file tests pin the CLI surface: a seeded `gen` must produce a
// byte-identical stream file, and `run` over that stream must report the same
// events and counters. Regenerate the goldens after an intentional change
// with:
//
//	go test ./cmd/dyndens -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestMain lets a test run the command in a child process: with
// DYNDENS_TEST_ARGS set, the test binary is dyndens itself, run over those
// space-separated arguments. A flag set's -h exits its process, so only a
// child can show it.
func TestMain(m *testing.M) {
	if args := os.Getenv("DYNDENS_TEST_ARGS"); args != "" {
		os.Exit(dispatch(strings.Fields(args)))
	}
	os.Exit(m.Run())
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	return captureFile(t, &os.Stdout, fn)
}

// captureFile runs fn with *target (os.Stdout or os.Stderr) redirected into a
// pipe and returns what fn wrote to it.
func captureFile(t *testing.T, target **os.File, fn func() error) string {
	t.Helper()
	old := *target
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*target = w
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	fnErr := fn()
	w.Close()
	<-done
	*target = old
	if fnErr != nil {
		t.Fatal(fnErr)
	}
	return buf.String()
}

var replayLine = regexp.MustCompile(`^(replay|segments)\{.*\}$`)

// normalizeRunOutput makes `dyndens run` output comparable across runs: the
// throughput/latency lines carry wall-clock timings and are scrubbed, and the
// per-event lines are sorted (their order within one update depends on map
// iteration order; the event SET per update is deterministic and the
// conformance tests in internal/stream pin it much harder).
func normalizeRunOutput(out string) string {
	var events, rest []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "became-output-dense") || strings.HasPrefix(line, "ceased-output-dense"):
			events = append(events, line)
		case replayLine.MatchString(line):
			rest = append(rest, "<replay-stats-scrubbed>")
		default:
			rest = append(rest, line)
		}
	}
	sort.Strings(events)
	return strings.Join(append(events, rest...), "\n") + "\n"
}

func compareGolden(t *testing.T, goldenPath, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if string(want) != got {
		t.Errorf("output differs from %s (regenerate with -update if intentional):\n--- want ---\n%s\n--- got ---\n%s", goldenPath, want, got)
	}
}

const genArgsStream = "-vertices 12 -updates 120 -seed 7 -neg 0.3 -mean 1.5"

func genArgs(out string) []string {
	return append(strings.Fields(genArgsStream), "-out", out)
}

// TestGoldenGen pins the seeded generator's recorded-stream format: same
// flags, same bytes.
func TestGoldenGen(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gen.stream")
	if err := cmdGen(genArgs(out)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "gen_small.stream")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("generated stream differs from %s (regenerate with -update if intentional)", golden)
	}
}

// TestGoldenRun pins `dyndens run` end to end: events, sink counters, and
// engine work summary over the golden stream.
func TestGoldenRun(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdRun([]string{"-input", filepath.Join("testdata", "gen_small.stream"), "-T", "2", "-nmax", "4"})
	})
	compareGolden(t, filepath.Join("testdata", "run_small.golden"), normalizeRunOutput(out))
}

// TestGoldenHelp pins every command's flags, their defaults and their help
// text: the -h output of each, which must exit 0.
func TestGoldenHelp(t *testing.T) {
	var b strings.Builder
	for _, args := range []string{"gen -h", "run -h", "stories gen-docs -h", "stories run -h", "serve -h"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "DYNDENS_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("dyndens %s: %v\n%s", args, err, out)
		}
		fmt.Fprintf(&b, "$ dyndens %s\n%s", args, out)
	}
	compareGolden(t, filepath.Join("testdata", "help.golden"), b.String())
}

// TestGoldenStoriesGenDocs pins the seeded document generator's recorded
// format: same flags, same bytes.
func TestGoldenStoriesGenDocs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "docs.docs")
	if err := cmdStoriesGenDocs([]string{"-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "docs_small.docs")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("generated document stream differs from %s (regenerate with -update if intentional)", golden)
	}
}

// TestGoldenStoriesRun pins the documents→stories pipeline end to end: the
// lifecycle log, story table, aggregation counters and engine summary over
// the golden document stream. The record lines are fully deterministic
// (sequence-labelled, canonical resolution order), so unlike run's event
// lines they are compared in order. The golden also pins the tick structure
// (one threshold tick per epoch) and sequence numbering.
func TestGoldenStoriesRun(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", filepath.Join("testdata", "docs_small.docs")})
	})
	compareGolden(t, filepath.Join("testdata", "stories_small.golden"), normalizeRunOutput(out))
}

// TestGoldenStoriesRunRescale pins the rescaled fading path against the same
// golden at a scale far from 1: with -doc-weight, -T and -prune all
// multiplied by 2⁻⁴⁰, every density and the threshold move together, so the
// lifecycle log, aggregation counters and story table must equal
// stories_small.golden's line for line.
func TestGoldenStoriesRunRescale(t *testing.T) {
	c := math.Ldexp(1, -40)
	scaled := func(v float64) string { return strconv.FormatFloat(v*c, 'g', -1, 64) }
	out := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", filepath.Join("testdata", "docs_small.docs"),
			"-doc-weight", scaled(1), "-T", scaled(6.5), "-prune", scaled(1e-3)})
	})
	want, err := os.ReadFile(filepath.Join("testdata", "stories_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines, gotLines := storyLifecycleLines(string(want)), storyLifecycleLines(out)
	if !strings.Contains(strings.Join(wantLines, "\n"), "born") {
		t.Fatal("golden lifecycle log contains no born record; fixture too weak")
	}
	if got, w := strings.Join(gotLines, "\n"), strings.Join(wantLines, "\n"); got != w {
		t.Errorf("lifecycle output at scale 2⁻⁴⁰ differs from stories_small.golden:\n--- want ---\n%s\n--- got ---\n%s", w, got)
	}
}

// storyLifecycleLines extracts the deterministic story-pipeline lines: the
// lifecycle log, the aggregation summary, and the story table.
func storyLifecycleLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[seq ") || strings.HasPrefix(line, "aggregate{") ||
			strings.HasPrefix(line, "stories:") || strings.HasPrefix(line, "story ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestStoriesRunSynthMatchesFileInput checks that -synth with the golden
// flags reproduces the committed document stream's lifecycle output (the
// file is itself a gen-docs capture of the default configuration).
func TestStoriesRunSynthMatchesFileInput(t *testing.T) {
	fromFile := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", filepath.Join("testdata", "docs_small.docs"), "-quiet"})
	})
	fromSynth := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-synth", "-quiet"})
	})
	a, b := storyLifecycleLines(fromFile), storyLifecycleLines(fromSynth)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("file and -synth disagree:\n--- file ---\n%s\n--- synth ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}

// TestStoriesGenDocsGzipRoundTrip checks the .gz write path feeds back into
// the pipeline transparently.
func TestStoriesGenDocsGzipRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "docs.gz")
	if err := cmdStoriesGenDocs([]string{"-docs", "80", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("output is not gzip-framed: % x", data[:2])
	}
	outText := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", out, "-quiet"})
	})
	if !strings.Contains(outText, "aggregate{docs=80") {
		t.Errorf("gzip document stream did not replay: %s", outText)
	}
}

// TestBenchSubcommandRetired pins what is left of `dyndens bench`: exit code 2
// like any unknown subcommand, one stderr line naming the replacement, and a
// usage text that no longer lists it.
func TestBenchSubcommandRetired(t *testing.T) {
	var code int
	out := captureFile(t, &os.Stderr, func() error {
		code = dispatch([]string{"bench", "-vertices", "50"})
		return nil
	})
	if code != 2 {
		t.Errorf("dispatch(bench) = %d, want 2", code)
	}
	for _, want := range []string{`unknown subcommand "bench"`, "bash bench/run.sh", "bench/README.md", "usage: dyndens"} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr is missing %q:\n%s", want, out)
		}
	}
	if regexp.MustCompile(`(?m)^ +bench\b`).MatchString(out) {
		t.Errorf("usage still lists a bench subcommand:\n%s", out)
	}
}

// TestRejectsNonFiniteFlags pins that a NaN or infinite threshold, δ_it
// fraction, decay or prune floor fails the run with an error instead of
// quietly running an engine that reports nothing or a tracker that never
// retires a pair.
func TestRejectsNonFiniteFlags(t *testing.T) {
	for _, c := range []struct {
		cmd  func([]string) error
		args []string
	}{
		{cmdRun, []string{"-input", filepath.Join("testdata", "gen_small.stream"), "-T", "NaN"}},
		{cmdRun, []string{"-input", filepath.Join("testdata", "gen_small.stream"), "-T", "Inf"}},
		{cmdRun, []string{"-input", filepath.Join("testdata", "gen_small.stream"), "-deltait-frac", "NaN"}},
		{cmdStoriesRun, []string{"-input", filepath.Join("testdata", "docs_small.docs"), "-T", "NaN"}},
		{cmdStoriesRun, []string{"-input", filepath.Join("testdata", "docs_small.docs"), "-prune", "NaN"}},
		{cmdStoriesRun, []string{"-input", filepath.Join("testdata", "docs_small.docs"), "-decay", "NaN"}},
	} {
		var err error
		captureStdout(t, func() error {
			err = c.cmd(append(c.args, "-quiet"))
			return nil
		})
		if err == nil {
			t.Errorf("%v accepted", c.args[2:])
		}
	}
}

// TestGenRejectsBadFlags pins gen's validation behaviour.
func TestGenRejectsBadFlags(t *testing.T) {
	if err := cmdGen([]string{"-updates", "0"}); err == nil {
		t.Error("gen -updates 0 succeeded, want error")
	}
	if err := cmdGen([]string{"-vertices", "1", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("gen -vertices 1 succeeded, want error")
	}
}

// TestRunBatchModeMarkers pins `run -batch`: "%%" markers delimit coalesced
// batches, the net event set equals the sequential run's final result set
// transitions, and the replay reports ticks (one per batch).
func TestRunBatchModeMarkers(t *testing.T) {
	dir := t.TempDir()
	streamPath := filepath.Join(dir, "marked.stream")
	data := "1 2 5\n2 3 5\n%%\n1 3 5\n%%\n%%\n1 3 -9\n"
	if err := os.WriteFile(streamPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdRun([]string{"-input", streamPath, "-T", "2", "-nmax", "4", "-batch"})
	})
	if !strings.Contains(out, "ticks=4") {
		t.Errorf("expected 4 logical ticks in output:\n%s", out)
	}
	// The triangle {1,2,3} becomes output-dense in batch 2 and its collapse
	// in batch 4 drops {1,3}-dependent subgraphs; events must be net per
	// batch, so the single-batch flap-free stream has matching became lines.
	if !strings.Contains(out, "became-output-dense") {
		t.Errorf("no became events in batch run:\n%s", out)
	}
	// Without -batch the markers still delimit read batches, but every update
	// is its own tick: the same 4 updates, one tick each.
	seq := captureStdout(t, func() error {
		return cmdRun([]string{"-input", streamPath, "-T", "2", "-nmax", "4"})
	})
	if !strings.Contains(seq, "updates=4 ticks=4") {
		t.Errorf("sequential run should see 4 updates with 4 ticks:\n%s", seq)
	}
}

// TestRunReadBatchCapsMarkerlessStream pins the cap -read-batch puts on a
// stream without "%%" markers, with or without -batch: the golden stream's 120
// updates are replayed in ⌈120/16⌉ batches of at most 16, not as one batch
// holding the whole stream, and sequentially, one tick per update.
func TestRunReadBatchCapsMarkerlessStream(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdRun([]string{"-input", filepath.Join("testdata", "gen_small.stream"), "-T", "2", "-nmax", "4", "-read-batch", "16", "-quiet"})
	})
	m := regexp.MustCompile(`replay\{updates=(\d+) ticks=(\d+) events=\d+ batches=(\d+) `).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no replay stats in output:\n%s", out)
	}
	if m[1] != "120" || m[2] != "120" || m[3] != "8" {
		t.Errorf("replayed updates=%s ticks=%s in %s batches, want 120, 120 and 8:\n%s", m[1], m[2], m[3], out)
	}
}

// TestStoriesBatchParity: `stories run -batch` must recover the same stories
// as the sequential replay on the golden document stream — the lifecycle logs
// differ in sequence numbering (batch ticks vs updates) but the final story
// entity sets must match, and coalescing must reduce ticks below updates. Grace counts ticks, so the
// sequential reference runs with a grace window spanning about as many
// documents as the batched run's 40 ticks; on this stream every -grace from
// 100 to 200 gives the batched run's final entity sets.
func TestStoriesBatchParity(t *testing.T) {
	input := filepath.Join("testdata", "docs_small.docs")
	run := func(args ...string) string {
		return captureStdout(t, func() error {
			return cmdStoriesRun(append([]string{"-input", input}, args...))
		})
	}
	// Grace is measured in engine ticks; scale it to batch ticks (one per
	// document/epoch burst instead of one per pair update).
	batched := run("-batch", "-grace", "40")
	entitySets := func(out string) []string {
		var sets []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "story ") {
				if i := strings.Index(line, "entities="); i >= 0 {
					sets = append(sets, line[i:])
				}
			}
		}
		sort.Strings(sets)
		return sets
	}
	sequential := run("-grace", "120")
	if a, b := entitySets(batched), entitySets(sequential); strings.Join(a, "|") != strings.Join(b, "|") {
		t.Errorf("final story entity sets differ:\nbatched:    %v\nsequential: %v", a, b)
	}
	if !regexp.MustCompile(`replay\{updates=(\d+) ticks=`).MatchString(batched) {
		t.Fatalf("no replay stats in batched output:\n%s", batched)
	}
	m := regexp.MustCompile(`replay\{updates=(\d+) ticks=(\d+)`).FindStringSubmatch(batched)
	if m == nil || m[1] == m[2] {
		t.Errorf("batched run did not coalesce ticks: %v", m)
	}
}
