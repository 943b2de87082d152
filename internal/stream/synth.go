package stream

import (
	"fmt"
	"math/rand"

	"dyndens/internal/graph"
)

// SynthConfig configures the seeded synthetic workload generator.
type SynthConfig struct {
	// Vertices is the size of the vertex universe [0, Vertices); must be ≥ 2.
	Vertices int
	// Updates is the stream length; must be ≥ 1.
	Updates int
	// Seed seeds the generator; equal configs with equal seeds produce
	// identical streams.
	Seed int64
	// Skew is the Zipf exponent for endpoint selection. Values > 1 make low
	// vertex identifiers proportionally hotter, concentrating weight the way
	// entity popularity does in the paper's news streams; values ≤ 1 select
	// endpoints uniformly.
	Skew float64
	// NegativeFraction is the probability in [0, 1) that an update has a
	// negative delta (a decaying association).
	NegativeFraction float64
	// MeanDelta scales update magnitudes: |δ| is exponentially distributed
	// with this mean. Defaults to 1.
	MeanDelta float64
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.MeanDelta <= 0 {
		c.MeanDelta = 1
	}
	return c
}

// Validate reports configuration errors.
func (c SynthConfig) Validate() error {
	if c.Vertices < 2 {
		return fmt.Errorf("stream: synthetic generator needs ≥ 2 vertices, got %d", c.Vertices)
	}
	if c.Updates < 1 {
		return fmt.Errorf("stream: synthetic generator needs ≥ 1 update, got %d", c.Updates)
	}
	if c.NegativeFraction < 0 || c.NegativeFraction >= 1 {
		return fmt.Errorf("stream: negative fraction %v outside [0, 1)", c.NegativeFraction)
	}
	return nil
}

// Synthetic generates the reproducible random update stream cfg describes.
// It returns an error for invalid configurations.
func Synthetic(cfg SynthConfig) ([]Update, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pick := func() graph.Vertex { return graph.Vertex(rng.Intn(cfg.Vertices)) }
	if cfg.Skew > 1 {
		zipf := rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Vertices-1))
		pick = func() graph.Vertex { return graph.Vertex(zipf.Uint64()) }
	}
	out := make([]Update, cfg.Updates)
	for i := range out {
		a := pick()
		b := pick()
		for b == a {
			b = pick()
		}
		delta := rng.ExpFloat64() * cfg.MeanDelta
		if delta < 1e-6 {
			delta = 1e-6
		}
		if cfg.NegativeFraction > 0 && rng.Float64() < cfg.NegativeFraction {
			delta = -delta
		}
		out[i] = Update{A: a, B: b, Delta: delta}
	}
	return out, nil
}

// MustSynthetic is Synthetic that panics on error; for tests and benchmarks
// with known-good configurations.
func MustSynthetic(cfg SynthConfig) []Update {
	updates, err := Synthetic(cfg)
	if err != nil {
		panic(err)
	}
	return updates
}
