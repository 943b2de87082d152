package main

import (
	"flag"
	"fmt"
	"os"

	"dyndens/internal/stream"
)

// cmdGen generates a seeded synthetic update stream in the edge-list format
// `a b delta` that `dyndens run` (and stream.FileSource) reads back. An -out
// path ending in .gz is written gzip-compressed; the readers decompress
// transparently.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("dyndens gen", flag.ExitOnError)
	vertices := fs.Int("vertices", 500, "vertex universe size")
	updates := fs.Int("updates", 10000, "number of updates to generate")
	seed := fs.Int64("seed", 1, "generator seed")
	skew := fs.Float64("skew", 0, "Zipf exponent for endpoint popularity (≤ 1 = uniform)")
	neg := fs.Float64("neg", 0.1, "fraction of negative (decay) updates")
	mean := fs.Float64("mean", 1, "mean update magnitude")
	out := fs.String("out", "-", "output path (- for stdout, .gz compresses)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectPositionalArgs(fs, "dyndens gen"); err != nil {
		return err
	}
	if *updates <= 0 {
		return fmt.Errorf("gen: -updates must be positive, got %d", *updates)
	}
	cfg := stream.SynthConfig{
		Vertices:         *vertices,
		Updates:          *updates,
		Seed:             *seed,
		Skew:             *skew,
		NegativeFraction: *neg,
		MeanDelta:        *mean,
	}

	all, err := stream.Synthetic(cfg)
	if err != nil {
		return err
	}

	w, closeOut, err := createOutput(*out)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# dyndens gen -vertices %d -updates %d -seed %d -skew %g -neg %g -mean %g\n",
		cfg.Vertices, cfg.Updates, cfg.Seed, cfg.Skew, cfg.NegativeFraction, cfg.MeanDelta); err != nil {
		closeOut()
		return err
	}
	n, err := stream.WriteUpdates(w, all)
	if err != nil {
		closeOut()
		return err
	}
	// A failed close can lose buffered or compressed trailing bytes; report
	// it rather than claim success over a truncated file.
	if err := closeOut(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d updates to %s\n", n, *out)
	return nil
}
