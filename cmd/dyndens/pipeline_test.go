package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// docPrefix returns the golden document stream cut after its first n
// documents, header comments included, and the whole stream.
func docPrefix(t *testing.T, n int) (prefix, full string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "docs_small.docs"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			if n == 0 {
				break
			}
			n--
		}
		b.WriteString(line)
	}
	return b.String(), string(data)
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// storyTable extracts the final story table: the stories: summary line and
// one story line per story.
func storyTable(out string) string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "stories:") || strings.HasPrefix(line, "story ") {
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}

// runCapturing runs cmd with args and returns its stdout, its stderr and the
// error it returned.
func runCapturing(t *testing.T, cmd func([]string) error, args []string) (stdout, stderr string, err error) {
	t.Helper()
	stderr = captureFile(t, &os.Stderr, func() error {
		stdout = captureStdout(t, func() error {
			err = cmd(args)
			return nil
		})
		return nil
	})
	return stdout, stderr, err
}

// TestResumeExtendsInput pins resume through the CLI for stories run and
// serve, single and sharded: a -wal run over the first 300 documents, then a
// rerun over the same file extended to all 600, must end on the story table
// of a one-shot stories run over the 600. The rerun must resume from the
// first run's final checkpoint, and serve must restore its serving builder
// from it.
func TestResumeExtendsInput(t *testing.T) {
	prefix, full := docPrefix(t, 300)
	ref := storyTable(captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", filepath.Join("testdata", "docs_small.docs"), "-quiet"})
	}))
	if !strings.Contains(ref, "state=live") {
		t.Fatalf("reference run has no story table:\n%s", ref)
	}
	// serve runs to the end of its input and exits, printing the same report
	// as stories run.
	for _, c := range []struct {
		name  string
		cmd   func([]string) error
		extra []string
	}{
		{"stories run", cmdStoriesRun, nil},
		{"serve", cmdServe, []string{"-exit-after-ingest", "-addr", "127.0.0.1:0"}},
	} {
		for _, shards := range []string{"0", "2"} {
			t.Run(c.name+"/shards="+shards, func(t *testing.T) {
				dir := t.TempDir()
				input := filepath.Join(dir, "docs.docs")
				args := append([]string{"-input", input, "-wal", filepath.Join(dir, "wal"), "-shards", shards, "-quiet"}, c.extra...)
				writeFile(t, input, prefix)
				if _, _, err := runCapturing(t, c.cmd, args); err != nil {
					t.Fatalf("first run: %v", err)
				}
				writeFile(t, input, full)
				out, stderr, err := runCapturing(t, c.cmd, args)
				if err != nil {
					t.Fatalf("rerun: %v", err)
				}
				if !strings.Contains(stderr, "wal: recovered 300 durable units") {
					t.Errorf("rerun did not resume from the first run's 300 documents:\n%s", stderr)
				}
				if got := storyTable(out); got != ref {
					t.Errorf("resumed story table differs from the one-shot run:\n--- one-shot ---\n%s\n--- resumed ---\n%s", ref, got)
				}
			})
		}
	}
}

// TestResumeFormatV1WAL pins resume across snapshot formats through the CLI.
// testdata/wal_v1/stories and testdata/wal_v1/serve were written by `stories
// run -wal` and `serve -wal` (with -quiet, serve also -exit-after-ingest)
// over the first 300 documents of docs_small.docs, under its path, by a build
// whose snapshots were format version 1 and stored the tracker's whole
// lifecycle log. Each command resumes a copy of its directory over the whole
// file and must end on the one-shot run's story table, stories: totals
// included.
func TestResumeFormatV1WAL(t *testing.T) {
	input := filepath.Join("testdata", "docs_small.docs")
	ref := storyTable(captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", input, "-quiet"})
	}))
	for _, c := range []struct {
		name, dir string
		cmd       func([]string) error
		extra     []string
	}{
		{"stories run", "stories", cmdStoriesRun, nil},
		{"serve", "serve", cmdServe, []string{"-exit-after-ingest", "-addr", "127.0.0.1:0"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := filepath.Join("testdata", "wal_v1", c.dir)
			files, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, f := range files {
				data, err := os.ReadFile(filepath.Join(src, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				writeFile(t, filepath.Join(dir, f.Name()), string(data))
			}
			out, stderr, err := runCapturing(t, c.cmd, append([]string{"-input", input, "-wal", dir, "-quiet"}, c.extra...))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !strings.Contains(stderr, "wal: recovered 300 durable units (0 WAL frames") {
				t.Errorf("did not resume from the version-1 snapshot at 300 documents:\n%s", stderr)
			}
			if got := storyTable(out); got != ref {
				t.Errorf("resumed story table differs from the one-shot run:\n--- one-shot ---\n%s\n--- resumed ---\n%s", ref, got)
			}
		})
	}
}

// TestErrorExitFlushesWAL pins that a run failing on malformed input still
// flushes the WAL frames of the units before it: the rerun over the same
// directory recovers them. For stdin those units could not be read again.
func TestErrorExitFlushesWAL(t *testing.T) {
	prefix, _ := docPrefix(t, 300)
	var edges strings.Builder
	for i := 0; i < 300; i++ {
		edges.WriteString("1 2 0.5\n")
	}
	for _, c := range []struct {
		name  string
		cmd   func([]string) error
		input string
		args  []string
		want  string
	}{
		{"stories run", cmdStoriesRun, prefix + "junk\n", []string{"-quiet"}, "wal: recovered 300 durable units"},
		{"serve", cmdServe, prefix + "junk\n", []string{"-quiet", "-exit-after-ingest", "-addr", "127.0.0.1:0"}, "wal: recovered 300 durable units"},
		// run logs one frame per read batch: three batches of 100 precede the
		// bad line.
		{"run", cmdRun, edges.String() + "1 junk 2\n", []string{"-quiet", "-read-batch", "100"}, "wal: recovered 3 durable units"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			input := filepath.Join(dir, "input")
			writeFile(t, input, c.input)
			args := append([]string{"-input", input, "-wal", filepath.Join(dir, "wal")}, c.args...)
			if _, _, err := runCapturing(t, c.cmd, args); err == nil {
				t.Fatal("malformed input accepted")
			}
			_, stderr, err := runCapturing(t, c.cmd, args)
			if err == nil {
				t.Fatal("malformed input accepted on the rerun")
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("rerun did not recover the units logged before the error exit; want %q in stderr:\n%s", c.want, stderr)
			}
		})
	}
}

// TestRejectsIgnoredFlags pins that a flag the user set is never silently
// ignored: one that would have no effect in the given combination fails the
// command before it runs.
func TestRejectsIgnoredFlags(t *testing.T) {
	// A serve that wrongly accepts its flags shuts down at once instead of
	// serving forever.
	serveShutdown = make(chan struct{})
	close(serveShutdown)
	defer func() { serveShutdown = nil }()
	edges := filepath.Join("testdata", "gen_small.stream")
	docs := filepath.Join("testdata", "docs_small.docs")
	serveArgs := []string{"-input", docs, "-quiet", "-addr", "127.0.0.1:0"}
	for _, c := range []struct {
		cmd  func([]string) error
		args []string
		want string
	}{
		{cmdRun, []string{"-input", edges, "-quiet", "-snapshot-every", "5000"}, "require -wal"},
		{cmdRun, []string{"-input", edges, "-quiet", "-fsync"}, "require -wal"},
		{cmdStoriesRun, []string{"-input", docs, "-quiet", "-snapshot-every", "5000"}, "require -wal"},
		{cmdStoriesRun, []string{"-input", docs, "-quiet", "-fsync=false"}, "require -wal"},
		{cmdServe, append([]string{"-snapshot-every", "5000", "-exit-after-ingest"}, serveArgs...), "require -wal"},
		{cmdServe, append([]string{"-linger", "1s"}, serveArgs...), "-linger requires -exit-after-ingest"},
		{cmdStoriesRun, []string{"-synth", "-input", docs, "-quiet"}, "-synth"},
	} {
		_, _, err := runCapturing(t, c.cmd, c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got error %v, want one containing %q", c.args, err, c.want)
		}
	}
}
