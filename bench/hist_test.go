package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// Percentiles read from the histogram are within 2 % of the exact value from
// a sorted slice, over distributions spanning many octaves.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	dists := map[string]func() int64{
		"uniform-small": func() int64 { return rng.Int64N(200) },
		"uniform-wide":  func() int64 { return rng.Int64N(50_000_000) },
		"lognormal":     func() int64 { return int64(math.Exp(8 + 2.5*rng.NormFloat64())) },
		"bimodal": func() int64 {
			if rng.IntN(10) == 0 {
				return 500_000 + rng.Int64N(100_000)
			}
			return 2_000 + rng.Int64N(500)
		},
	}
	for name, draw := range dists {
		var h hist
		xs := make([]int64, 100_000)
		for i := range xs {
			xs[i] = draw()
			h.add(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := float64(xs[int(math.Ceil(q*float64(len(xs))))-1])
			got := h.quantile(q)
			if exact > 0 && math.Abs(got-exact)/exact > 0.02 {
				t.Errorf("%s q=%g: histogram %.1f, exact %.1f (%.2f%% off)", name, q, got, exact, 100*math.Abs(got-exact)/exact)
			}
		}
		if h.n != uint64(len(xs)) || h.max != uint64(xs[len(xs)-1]) {
			t.Errorf("%s: n=%d max=%d, want %d %d", name, h.n, h.max, len(xs), xs[len(xs)-1])
		}
	}
}

// Every value lands in a bucket whose bounds contain it, and buckets tile the
// range without gaps.
func TestHistBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		low, width := histBounds(histBucket(v))
		if v < low || v-low >= width {
			t.Errorf("value %d in bucket [%d, %d)", v, low, low+width)
		}
	}
	for i := 0; i+1 < histBuckets; i++ {
		low, width := histBounds(i)
		if next, _ := histBounds(i + 1); low+width != next {
			t.Fatalf("bucket %d ends at %d, bucket %d starts at %d", i, low+width, i+1, next)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}
