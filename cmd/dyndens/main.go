// Command dyndens is the streaming driver for the DynDens engine: it wires an
// update source (recorded file, stdin, or the synthetic generator) through
// the incremental dense-subgraph engine into an event sink, exposing the
// paper's algorithm as a runnable pipeline.
//
// Subcommands:
//
//	gen      generate a seeded synthetic update stream as an edge-list file
//	run      replay an update stream from a file or stdin, printing events
//	stories  the document pipeline: generate document streams (gen-docs) and
//	         run documents → co-occurrence updates → engine → story tracker,
//	         printing the story lifecycle log and the final story table (run)
//	serve    ingest a document stream while serving the live story table over
//	         HTTP: snapshot reads, ranked top-k, per-entity lookup, and an
//	         SSE lifecycle stream, all concurrent with the writer
//
// Run `dyndens <subcommand> -h` for the flags of each subcommand.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dyndens/internal/core"
	"dyndens/internal/density"
)

func main() {
	os.Exit(dispatch(os.Args[1:]))
}

// dispatch runs the subcommand named by args[0] and returns the exit code.
func dispatch(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "gen":
		err = cmdGen(args[1:])
	case "run":
		err = cmdRun(args[1:])
	case "stories":
		err = cmdStories(args[1:])
	case "serve":
		err = cmdServe(args[1:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dyndens: unknown subcommand %q\n", args[0])
		if args[0] == "bench" {
			fmt.Fprintln(os.Stderr, "dyndens: the benchmark is `bash bench/run.sh` (see bench/README.md)")
		}
		fmt.Fprintln(os.Stderr)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dyndens:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: dyndens <subcommand> [flags]

subcommands:
  gen      generate a seeded synthetic update stream (edge-list format)
  run      replay an update stream from a file or stdin, printing events
  stories  document pipeline: gen-docs / run (documents in, stories out)
  serve    ingest a document stream while serving the live story table,
           ranked top-k queries and a lifecycle event stream over HTTP
`)
}

// engineFlags registers the engine configuration flags shared by run, stories
// and serve and returns a constructor that builds the configuration after
// parsing. defT and defNmax are the per-subcommand defaults (the story
// pipeline wants a threshold matched to document co-occurrence weights, the
// raw update commands the historical T=3/Nmax=5).
func engineFlags(fs *flag.FlagSet, defT float64, defNmax int) func() (core.Config, error) {
	t := fs.Float64("T", defT, "output-density threshold T")
	nmax := fs.Int("nmax", defNmax, "maximum subgraph cardinality Nmax")
	deltaItFrac := fs.Float64("deltait-frac", 0.01, "δ_it as a fraction of its maximum valid value")
	measure := fs.String("measure", "avgweight", "density measure: avgweight, avgdegree, or sqrt")
	return func() (core.Config, error) {
		m, err := measureByName(*measure)
		if err != nil {
			return core.Config{}, err
		}
		// Config.withDefaults silently falls back to 0.01 for out-of-range
		// fractions; an explicitly set flag should fail loudly instead, NaN
		// included.
		if !(*deltaItFrac > 0 && *deltaItFrac < 1) {
			return core.Config{}, fmt.Errorf("-deltait-frac must be in (0, 1), got %g", *deltaItFrac)
		}
		return core.Config{
			Measure:         m,
			T:               *t,
			Nmax:            *nmax,
			DeltaItFraction: *deltaItFrac,
		}, nil
	}
}

// rejectPositionalArgs fails when anything is left after flag parsing. The
// subcommands take no positional arguments, and Go's flag package stops at
// the first non-flag token — without this check a stray value (for example a
// pre-PR-5 `-batch 512`, when -batch was the micro-batch size rather than
// the coalescing switch) would silently discard every argument after it and
// run a completely different configuration.
func rejectPositionalArgs(fs *flag.FlagSet, cmd string) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q (flags must precede it; note -batch is a boolean switch)", cmd, fs.Arg(0))
	}
	return nil
}

// isSet reports whether the named flag was given on the command line, as
// opposed to left at its default: a flag that is set but would be ignored in
// the given combination is rejected, whatever value it was set to.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func measureByName(name string) (density.Measure, error) {
	switch name {
	case "avgweight":
		return density.AvgWeight, nil
	case "avgdegree":
		return density.AvgDegree, nil
	case "sqrt":
		return density.SqrtDens, nil
	default:
		return nil, fmt.Errorf("unknown measure %q (want avgweight, avgdegree, or sqrt)", name)
	}
}

// createOutput opens the destination for a generated stream: stdout for "-",
// a plain file otherwise, gzip-compressed when the path ends in ".gz" (the
// sources sniff the magic number, so compressed streams read back with no
// flag). close must be called on success; it reports flush/close errors that
// would otherwise silently truncate the file.
func createOutput(path string) (w io.Writer, close func() error, err error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, f.Close, nil
	}
	zw := gzip.NewWriter(f)
	return zw, func() error {
		if err := zw.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// statsSummary formats the engine-side work counters for the end-of-run
// report.
func statsSummary(s core.Stats) string {
	return fmt.Sprintf(
		"engine: updates=%d (+%d/-%d) events=%d dense=%d stars=%d index-nodes=%d (max %d)\n"+
			"work:   explorations=%d certified=%d cheap-explores=%d cheap-indexed=%d insertions=%d evictions=%d",
		s.Updates, s.PositiveUpdates, s.NegativeUpdates, s.Events,
		s.IndexedDense, s.IndexedStars, s.IndexNodes, s.MaxIndexNodes,
		s.Explorations, s.ExploreCertified, s.CheapExplores, s.CheapIndexed, s.Insertions, s.Evictions)
}
