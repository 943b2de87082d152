package main

import (
	"flag"
	"path/filepath"
	"slices"
	"testing"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/core"
	"dyndens/internal/stream"
)

// TestShippedConfigMatchesBrute builds the engine the way `dyndens run -T 2
// -nmax 4` does, through engineFlags, replays small streams through it, and
// after every update requires its expanded output-dense set to equal
// brute.EnumerateAll over its graph.
//
// gen_small.stream is TestGoldenRun's input. An engine with the Section 7.1
// MaxExplore caps reports {1,8,10,11} there late, at score 13.48 instead of
// the 13.34 at which it crosses at update 45.
//
// implicit_member.stream is a minimal stream on which those caps lose a
// set. Section 7.1 caps the size of the newly dense subgraphs that an update
// of {a,b} must find by exploration. It assumes that a larger newly dense C
// holds a dense C∖{a} that is explicitly indexed, so that cheap-exploring it
// with a finds C. Here {1,2} turns too-dense at the fourth update. Then {1,2,6}
// is dense but only a member of {1,2}'s ImplicitTooDense family, with no index
// entry of its own. The last update {0,1} gives b = 1 a cap of 3. So the caps
// skip the exploration of {0,1,2}, and {0,1,2,6}, whose C∖{0} is {1,2,6}, is
// never found.
func TestShippedConfigMatchesBrute(t *testing.T) {
	for _, name := range []string{"gen_small.stream", "implicit_member.stream"} {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		newCfg := engineFlags(fs, 3, 5)
		if err := fs.Parse([]string{"-T", "2", "-nmax", "4"}); err != nil {
			t.Fatal(err)
		}
		cfg, err := newCfg()
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := stream.OpenFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		updates, err := stream.Drain(src)
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range updates {
			e.Process(u)
			var got []string
			for _, s := range e.OutputDenseExpanded() {
				got = append(got, s.Set.Key())
			}
			slices.Sort(got)
			want := brute.Keys(brute.EnumerateAll(e.Graph(), brute.Params{Measure: cfg.Measure, T: cfg.T, Nmax: cfg.Nmax}))
			if !slices.Equal(got, want) {
				t.Fatalf("%s update %d %v: expanded output-dense set\n got %v\nwant %v", name, i, u, got, want)
			}
		}
		if e.Stats().Events == 0 {
			t.Fatalf("%s: no events; the fixture is too weak", name)
		}
	}
}
