package stream

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestStatsZeroElapsedFinite pins the zero-duration guards on every derived
// throughput/ratio method: a replay whose measured duration rounds to zero
// (tiny workloads on coarse clocks) must report 0, never +Inf or NaN. A
// caller that writes the derived values as JSON float64 fields would
// otherwise fail: json.Marshal rejects non-finite floats.
func TestStatsZeroElapsedFinite(t *testing.T) {
	seg := SegmentStats{Updates: 500, Elapsed: 0}
	if got := seg.UpdatesPerSecond(); got != 0 {
		t.Errorf("SegmentStats zero-elapsed throughput = %v, want 0", got)
	}

	rs := ReplayStats{Updates: 500, Elapsed: 0}
	if got := rs.UpdatesPerSecond(); got != 0 {
		t.Errorf("ReplayStats zero-elapsed throughput = %v, want 0", got)
	}
	if got := (ReplayStats{}).MeanUpdateLatency(); got != 0 {
		t.Errorf("zero-update mean latency = %v, want 0", got)
	}

	// The derived values must round-trip through JSON finitely.
	out, err := json.Marshal(map[string]float64{
		"updates_per_second": rs.UpdatesPerSecond(),
		"segment_throughput": seg.UpdatesPerSecond(),
	})
	if err != nil {
		t.Fatalf("marshalling zero-elapsed stats: %v", err)
	}
	var back map[string]float64
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	for k, v := range back {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("%s = %v survived marshalling non-finite", k, v)
		}
	}

	// Sanity: with a real duration the same methods report real numbers.
	rs.Elapsed = 250 * time.Millisecond
	if got := rs.UpdatesPerSecond(); got != 2000 {
		t.Errorf("throughput = %v, want 2000", got)
	}
}
