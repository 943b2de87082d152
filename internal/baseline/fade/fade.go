// Package fade is the paper-literal fading co-occurrence aggregation (§2),
// kept as the reference stream.Aggregator is tested against. Each document
// adds DocWeight to every pair of entities it mentions, and each epoch tick
// sweeps every tracked pair, emitting one negative delta that takes its
// weight w to w·Decay^elapsed, or cancels it outright once the faded weight
// falls below PruneBelow. That costs O(tracked pairs) per epoch. The shipped
// aggregator instead folds the decay into a cumulative scale λ and moves the
// engine's threshold to T/λ. Uniform scaling preserves every density ratio,
// so the two are the same computation in different units.
//
// The package imports only graph and vset, so the tests of package stream
// can use it without an import cycle.
package fade

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"dyndens/internal/graph"
	"dyndens/internal/vset"
)

// Doc is the document layout Sweep reads. stream.Document has this layout,
// so a []stream.Document is passed to Sweep as it is.
type Doc = struct {
	Time     int64
	Entities vset.Set
}

// Config is the fading schedule. Unlike stream.AggregatorConfig it applies
// no defaults: every field is used as given.
type Config struct {
	EpochLength int64   // epoch length in document time units, ≥ 1
	Decay       float64 // per-epoch fading factor in (0, 1]
	DocWeight   float64 // weight one co-occurrence contributes
	PruneBelow  float64 // retire pairs whose faded weight drops below this; ≤ 0 never
}

// Group is one batch of the stream, cut the way stream.Aggregator cuts its
// batches: one per document that has at least one pair, and one per epoch
// crossing while Decay < 1, even when that sweep emits no delta.
type Group struct {
	Updates []graph.Update
	After   []float64 // Stream.After for these updates
	Epoch   bool      // an epoch tick's sweep rather than a document's pairs
}

// Stream is the output of Sweep.
type Stream struct {
	Updates []graph.Update // every delta, in emission order
	// After holds, for each of Updates, the pair's weight in the sweep's own
	// arithmetic once the delta is applied: faded for a fade, 0 for a
	// retirement. Below a decay of ½ the sum of a pair's deltas need not
	// equal its faded weight (w + (w·f − w) rounds), so a mirror that adds
	// the deltas up drifts from the sweep; one that reads After does not.
	After   []float64
	Groups  []Group // Updates cut into epoch sweeps and documents
	Retired int     // pairs cancelled for falling below PruneBelow
	Touches int     // tracked pairs summed over every sweep
}

// Sweep runs docs through the fading schedule. A document's pairs are
// emitted in sorted order and a sweep visits pairs in sorted order, so equal
// inputs give equal streams. It panics if document time goes backwards.
func Sweep[D ~Doc](docs []D, cfg Config) Stream {
	var s Stream
	weights := map[uint64]float64{} // keyed by pairKey
	var ends []int
	var epochs []bool
	cut := func(epoch bool) {
		ends = append(ends, len(s.Updates))
		epochs = append(epochs, epoch)
	}
	var cur, last int64
	for i := range docs {
		d := Doc(docs[i])
		epoch := d.Time / cfg.EpochLength
		switch {
		case i == 0:
			cur = epoch
		case d.Time < last:
			panic(fmt.Sprintf("fade: document time went backwards: %d after %d", d.Time, last))
		case epoch > cur:
			if factor := math.Pow(cfg.Decay, float64(epoch-cur)); factor != 1 {
				s.sweep(weights, factor, cfg.PruneBelow)
				cut(true)
			}
			cur = epoch
		}
		last = d.Time
		n := len(s.Updates)
		for j, a := range d.Entities {
			for _, b := range d.Entities[j+1:] {
				k := pairKey(a, b)
				weights[k] += cfg.DocWeight
				s.Updates = append(s.Updates, graph.Update{A: a, B: b, Delta: cfg.DocWeight})
				s.After = append(s.After, weights[k])
			}
		}
		if len(s.Updates) > n {
			cut(false)
		}
	}
	start := 0
	for i, end := range ends {
		s.Groups = append(s.Groups, Group{Updates: s.Updates[start:end:end], After: s.After[start:end:end], Epoch: epochs[i]})
		start = end
	}
	return s
}

// sweep fades every tracked pair by factor in sorted pair order.
func (s *Stream) sweep(weights map[uint64]float64, factor, pruneBelow float64) {
	keys := slices.Sorted(maps.Keys(weights))
	s.Touches += len(keys)
	for _, k := range keys {
		w := weights[k]
		faded := w * factor
		delta := faded - w
		if faded < pruneBelow {
			delta, faded = -w, 0
			delete(weights, k)
			s.Retired++
		} else {
			weights[k] = faded
		}
		if delta != 0 {
			s.Updates = append(s.Updates, graph.Update{A: graph.Vertex(k >> 32), B: graph.Vertex(uint32(k)), Delta: delta})
			s.After = append(s.After, faded)
		}
	}
}

// pairKey packs a < b into one word that sorts by (a, b), the order
// stream.Aggregator emits pairs in.
func pairKey(a, b graph.Vertex) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}
