package main

import (
	"flag"
	"fmt"
	"os"

	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// cmdStories dispatches the document-pipeline subcommands: the end-to-end
// documents → co-occurrence updates → engine → story tracker path of the
// paper (Section 2), as opposed to gen/run which start at raw edge
// deltas.
func cmdStories(args []string) error {
	if len(args) < 1 {
		storiesUsage()
		return fmt.Errorf("stories: missing subcommand")
	}
	switch args[0] {
	case "gen-docs":
		return cmdStoriesGenDocs(args[1:])
	case "run":
		return cmdStoriesRun(args[1:])
	case "-h", "--help", "help":
		storiesUsage()
		return nil
	default:
		storiesUsage()
		return fmt.Errorf("stories: unknown subcommand %q", args[0])
	}
}

func storiesUsage() {
	fmt.Fprint(os.Stderr, `usage: dyndens stories <subcommand> [flags]

subcommands:
  gen-docs  generate a seeded synthetic document stream (planted stories
            over Zipf background noise) as a `+"`time e1 e2 ...`"+` file
  run       replay a document stream (file, stdin, or -synth) through the
            aggregation → engine → story-tracking pipeline, printing the
            story lifecycle log and the final story table
`)
}

// docSynthFlags registers the synthetic document generator flags shared by
// gen-docs and run -synth. The defaults are the repo's reference story
// workload: co-occurrence weights land in the band where planted stories are
// recovered as output-dense subgraphs (with -T 6.5 -nmax 4, the stories run
// defaults) while background chatter stays below threshold.
func docSynthFlags(fs *flag.FlagSet) func() (stream.DocSynthConfig, error) {
	entities := fs.Int("entities", 30, "background entity universe size")
	stories := fs.Int("stories", 3, "number of planted stories")
	storySize := fs.Int("story-size", 4, "entities per planted story")
	docs := fs.Int("docs", 600, "number of documents to generate")
	seed := fs.Int64("seed", 7, "generator seed")
	storyFrac := fs.Float64("story-frac", 0.75, "fraction of documents drawn for a planted story (0 = none)")
	mentions := fs.Int("story-mentions", 0, "story entities mentioned per story document (0 = min(3, story-size))")
	bgMentions := fs.Int("bg-mentions", 3, "entities mentioned per background document")
	skew := fs.Float64("bg-skew", 1.1, "Zipf exponent for background entity popularity (≤ 1 = uniform)")
	noise := fs.Float64("noise", 0, "probability a story document also mentions a background entity (0 = never)")
	lifetime := fs.Float64("lifetime", 0.6, "each story's activity window as a fraction of the stream")
	return func() (stream.DocSynthConfig, error) {
		// On the command line a probability of 0 means "never"; the config
		// layer spells that -1 (its 0 selects the built-in default).
		return stream.DocSynthConfig{
			BackgroundEntities: *entities,
			Stories:            *stories,
			StorySize:          *storySize,
			Docs:               *docs,
			Seed:               *seed,
			StoryFraction:      cliProb(*storyFrac),
			StoryMentions:      *mentions,
			BackgroundMentions: *bgMentions,
			BackgroundSkew:     *skew,
			NoiseMentionProb:   cliProb(*noise),
			StoryLifetime:      *lifetime,
		}, nil
	}
}

// cliProb translates a command-line probability into the config layer's
// convention: the flags' 0 means "never", which the configs spell as a
// negative value (their 0 means "use the default").
func cliProb(v float64) float64 {
	if v == 0 {
		return -1
	}
	return v
}

// aggregatorFlags registers the co-occurrence aggregation flags.
func aggregatorFlags(fs *flag.FlagSet) func() (stream.AggregatorConfig, error) {
	epoch := fs.Int64("epoch", 25, "fading epoch length in document time units")
	decay := fs.Float64("decay", 0.7, "multiplicative per-epoch fading factor in (0, 1]")
	docWeight := fs.Float64("doc-weight", 1, "edge weight contributed by one co-occurrence")
	prune := fs.Float64("prune", 1e-3, "retire pairs whose faded weight drops below this (≤0 = never)")
	return func() (stream.AggregatorConfig, error) {
		// The config layer treats zero fields as "use the default", so an
		// explicitly invalid flag must fail loudly here rather than be
		// silently remapped.
		if err := checkDecay(*decay); err != nil {
			return stream.AggregatorConfig{}, err
		}
		if *docWeight <= 0 {
			return stream.AggregatorConfig{}, fmt.Errorf("-doc-weight must be positive, got %g", *docWeight)
		}
		p := *prune
		if p <= 0 {
			p = -1 // ≤0 on the command line means never prune
		}
		return stream.AggregatorConfig{
			EpochLength: *epoch,
			Decay:       *decay,
			DocWeight:   *docWeight,
			PruneBelow:  p,
		}, nil
	}
}

// checkDecay rejects fading factors outside (0, 1], NaN included, before the
// config layer's zero-means-default rule can swallow them.
func checkDecay(decay float64) error {
	if !(decay > 0 && decay <= 1) {
		return fmt.Errorf("-decay must be in (0, 1], got %g", decay)
	}
	return nil
}

// trackerFlags registers the story-identity flags.
func trackerFlags(fs *flag.FlagSet) func() (story.Config, error) {
	jaccard := fs.Float64("jaccard", 0.5, "continuity threshold: Jaccard similarity for a subgraph to join a story")
	grace := fs.Uint64("grace", 350, "updates a story survives with no output-dense subgraph (0 = none: die at the first update after fading)")
	minCard := fs.Int("min-card", 3, "ignore output-dense subgraphs smaller than this")
	return func() (story.Config, error) {
		// On the command line 0 means "no grace at all"; the config layer
		// spells that story.GraceNone (its 0 selects the built-in default).
		g := *grace
		if g == 0 {
			g = story.GraceNone
		}
		return story.Config{
			MinJaccard:     *jaccard,
			Grace:          g,
			MinCardinality: *minCard,
		}, nil
	}
}

// cmdStoriesGenDocs generates a seeded synthetic document stream in the
// `time e1 e2 ...` format that `dyndens stories run` (and
// stream.DocFileSource) reads back. An -out path ending in .gz is written
// gzip-compressed.
func cmdStoriesGenDocs(args []string) error {
	fs := flag.NewFlagSet("dyndens stories gen-docs", flag.ExitOnError)
	newSynth := docSynthFlags(fs)
	out := fs.String("out", "-", "output path (- for stdout, .gz compresses)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectPositionalArgs(fs, "dyndens stories gen-docs"); err != nil {
		return err
	}
	cfg, err := newSynth()
	if err != nil {
		return err
	}
	gen, err := stream.NewDocSynthetic(cfg)
	if err != nil {
		return err
	}
	docs, err := stream.DrainDocs(gen)
	if err != nil {
		return err
	}

	w, closeOut, err := createOutput(*out)
	if err != nil {
		return err
	}
	// The header is a replayable provenance record of the effective
	// configuration; a probability of 0 means "never" both here and on the
	// command line (cliProb handles the config layer's 0-means-default).
	cfg = gen.Config()
	if _, err := fmt.Fprintf(w,
		"# dyndens stories gen-docs -entities %d -stories %d -story-size %d -docs %d -seed %d -story-frac %g -story-mentions %d -bg-mentions %d -bg-skew %g -noise %g -lifetime %g\n",
		cfg.BackgroundEntities, cfg.Stories, cfg.StorySize, cfg.Docs, cfg.Seed,
		cfg.StoryFraction, cfg.StoryMentions, cfg.BackgroundMentions,
		cfg.BackgroundSkew, cfg.NoiseMentionProb, cfg.StoryLifetime); err != nil {
		closeOut()
		return err
	}
	for _, p := range gen.PlantedStories() {
		if _, err := fmt.Fprintf(w, "# planted %v docs [%d, %d)\n", p.Entities, p.Start, p.End); err != nil {
			closeOut()
			return err
		}
	}
	n, err := stream.WriteDocuments(w, docs)
	if err != nil {
		closeOut()
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d documents to %s\n", n, *out)
	return nil
}

// cmdStoriesRun replays a document stream through the full pipeline:
// DocumentSource → co-occurrence Aggregator → engine → story Tracker. The
// story lifecycle log streams to stdout as records are produced, and the run
// ends with the throughput summary, the aggregation and story statistics, and
// the final story table. The lifecycle log and table are deterministic for a
// given input.
func cmdStoriesRun(args []string) error {
	fs := flag.NewFlagSet("dyndens stories run", flag.ExitOnError)
	open := docFlags(fs, fs.String("input", "-", "document stream path (- for stdin), `time e1 e2 ...` lines"))
	quiet := fs.Bool("quiet", false, "suppress the streaming lifecycle log, print only summaries and the table")
	synth := fs.Bool("synth", false, "generate the documents instead of reading -input (see gen-docs flags)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectPositionalArgs(fs, "dyndens stories run"); err != nil {
		return err
	}
	if *synth && isSet(fs, "input") {
		return fmt.Errorf("stories run: -synth generates the documents and ignores -input; give one of them")
	}
	p, err := open("stories run", "stories", *synth)
	if err != nil {
		return err
	}
	defer p.close()
	if !*quiet {
		p.tracker.SetRecordSink(func(r story.Record) { fmt.Println(r) })
	}
	ctx, stopSignals := signalContext()
	defer stopSignals()
	// The front-end is a BatchSource, so no read size applies.
	return p.drive(ctx, p.tracker, p.batch, func(st stream.ReplayStats, _ bool) { p.report(st) })
}

// printStoryTable prints the tracker summary line and the final story table.
func printStoryTable(tracker *story.Tracker) {
	st := tracker.Stats()
	fmt.Printf("stories: born=%d split=%d updated=%d merged=%d died=%d | live=%d fading=%d subgraphs=%d\n",
		st.Born, st.Split, st.Updated, st.Merged, st.Died, st.Live, st.Fading, st.Subgraphs)
	for _, s := range tracker.Stories() {
		state := "live"
		if s.Fading {
			state = "fading"
		}
		fmt.Printf("story %d: born=%d last=%d state=%s subgraphs=%d entities=%v\n",
			s.ID, s.BornSeq, s.LastSeq, state, s.Subgraphs, s.Entities)
	}
}
