package stream

import (
	"fmt"
	"io"
	"math/rand"

	"dyndens/internal/graph"
)

// SynthConfig configures the seeded synthetic workload generator.
type SynthConfig struct {
	// Vertices is the size of the vertex universe [0, Vertices); must be ≥ 2.
	Vertices int
	// Updates caps the stream length; 0 means unbounded (the source never
	// returns io.EOF — wrap it with NewLimitSource).
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
	if c.NegativeFraction < 0 || c.NegativeFraction >= 1 {
		return fmt.Errorf("stream: negative fraction %v outside [0, 1)", c.NegativeFraction)
	}
	return nil
}

// SyntheticSource generates a reproducible random update stream.
type SyntheticSource struct {
	cfg     SynthConfig
	rng     *rand.Rand
	zipf    *rand.Zipf
	emitted int
}

// NewSynthetic builds a generator from cfg. It returns an error for invalid
// configurations.
func NewSynthetic(cfg SynthConfig) (*SyntheticSource, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &SyntheticSource{cfg: cfg, rng: rng}
	if cfg.Skew > 1 {
		s.zipf = rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Vertices-1))
	}
	return s, nil
}

// MustSynthetic is NewSynthetic that panics on error; for tests and
// benchmarks with known-good configurations.
func MustSynthetic(cfg SynthConfig) *SyntheticSource {
	s, err := NewSynthetic(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Next implements UpdateSource.
func (s *SyntheticSource) Next() (Update, error) {
	if s.cfg.Updates > 0 && s.emitted >= s.cfg.Updates {
		return Update{}, io.EOF
	}
	s.emitted++
	a := s.pickVertex()
	b := s.pickVertex()
	for b == a {
		b = s.pickVertex()
	}
	delta := s.rng.ExpFloat64() * s.cfg.MeanDelta
	if delta < 1e-6 {
		delta = 1e-6
	}
	if s.cfg.NegativeFraction > 0 && s.rng.Float64() < s.cfg.NegativeFraction {
		delta = -delta
	}
	return Update{A: a, B: b, Delta: delta}, nil
}

func (s *SyntheticSource) pickVertex() graph.Vertex {
	if s.zipf != nil {
		return graph.Vertex(s.zipf.Uint64())
	}
	return graph.Vertex(s.rng.Intn(s.cfg.Vertices))
}
