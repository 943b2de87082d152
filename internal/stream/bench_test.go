package stream

import "testing"

// tickBench drives an aggregator through epochs of one document each, in the
// steady state of a fading stream: every document brings fresh pairs that
// live about 120 epochs unless re-mentioned, and re-mentions a few pairs from
// tens of epochs back, so the tracked count settles near 120 × fresh and each
// tick pops a mix of first-time entries (most of them retiring) and stale
// ones that are re-keyed.
type tickBench struct {
	agg   *Aggregator
	next  int32 // the next fresh pair's index
	now   int64
	pairs []pairKey
}

const (
	tickBenchFresh     = 100 // fresh pairs per document
	tickBenchRemention = 20  // re-mentioned pairs per document
)

// tickBenchPair is the i-th fresh pair.
func tickBenchPair(i int32) pairKey { return makePairKey(i, i+1<<30) }

func newTickBench() *tickBench {
	// 0.97^120 ≈ 0.026: a pair mentioned once retires 120 epochs later.
	agg := mustAggregator(NewSliceDocSource(nil), AggregatorConfig{EpochLength: 1, Decay: 0.97, PruneBelow: 0.026})
	return &tickBench{agg: agg}
}

// step ingests the next document, one epoch after the last.
func (tb *tickBench) step() {
	tb.pairs = tb.pairs[:0]
	for range tickBenchFresh {
		tb.pairs = append(tb.pairs, tickBenchPair(tb.next))
		tb.next++
	}
	for j := range int32(tickBenchRemention) {
		// A pair from 30 to 90 epochs back, spread over the documents.
		if back := tb.next - tickBenchFresh*(30+3*j) - 7*j; back >= 0 {
			tb.pairs = append(tb.pairs, tickBenchPair(back))
		}
	}
	tb.now++
	if err := tb.agg.ingestExpanded(tb.now, tb.pairs); err != nil {
		panic(err)
	}
}

// BenchmarkAggregatorTick measures one epoch tick plus the document that
// crosses into it, at about 13 000 tracked pairs with about 100 retiring per
// tick: the per-document cost of lazy retirement in a long-running stream.
func BenchmarkAggregatorTick(b *testing.B) {
	tb := newTickBench()
	for range 1000 {
		tb.step()
	}
	st := tb.agg.Stats()
	b.ReportAllocs()
	for b.Loop() {
		tb.step()
	}
	end := tb.agg.Stats()
	b.ReportMetric(float64(end.Retired-st.Retired)/float64(b.N), "retired/op")
	b.ReportMetric(float64(end.TrackedPairs), "tracked")
}

// BenchmarkPairTableChurn measures the weight table's steady-state cycle at a
// live load near the growth bound (14 000 entries, 85 % of 16 384 slots): one
// fresh pair added, one live pair read, and the oldest pair retired.
func BenchmarkPairTableChurn(b *testing.B) {
	const live = 14000
	tab := newPairTable()
	for i := range int32(live) {
		tab.add(tickBenchPair(i), 1)
	}
	next := int32(live)
	b.ReportAllocs()
	for b.Loop() {
		tab.add(tickBenchPair(next), 1)
		tab.get(tickBenchPair(next - live/2))
		tableDel(tab, tickBenchPair(next-live))
		next++
	}
	b.ReportMetric(float64(len(tab.hashes)), "slots")
}
