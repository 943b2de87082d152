package stream

import (
	"fmt"
	"math"
	"slices"

	"dyndens/internal/density"
	"dyndens/internal/graph"
	"dyndens/internal/vset"
)

// DecayMode names the fading realisation. Its one value is the zero value
// DecayRescale; the field stays because existing callers name it. The
// paper-literal per-pair sweep lives on as the test reference
// internal/baseline/fade.
type DecayMode int

// DecayRescale keeps weights in normalized units w' = w/λ: an epoch tick is
// one float multiply plus a single threshold unit (λ), and PruneBelow
// retirement is served lazily from an expiry-scale queue.
const DecayRescale DecayMode = 0

// maxTickFade bounds how far one epoch tick fades, whatever the gap between
// documents: any pair a positive PruneBelow still tracks at that depth
// retires either way, and it keeps λ·factor a normal float for density.Fold.
const maxTickFade = 0x1p-500

// AggregatorConfig configures the document→update co-occurrence aggregation
// (the paper's Section 2 pre-processing): each document contributes DocWeight
// to the edge weight of every pair of entities it mentions, and all pair
// weights fade multiplicatively once per epoch, so a pair's weight is the
// decayed sum Σ DocWeight·Decay^(age in epochs) over the documents that
// co-mentioned it.
type AggregatorConfig struct {
	// EpochLength is the fading period in document time units; must be ≥ 1.
	// When a document's timestamp crosses into a later epoch, the decay for
	// every elapsed epoch is applied (as one threshold batch unit) before the
	// document's own co-occurrences are emitted.
	EpochLength int64
	// Decay is the multiplicative per-epoch fading factor in (0, 1]; 1 turns
	// fading off. Defaults to 0.5.
	Decay float64
	// DocWeight is the weight one co-occurrence contributes; must be
	// positive. Defaults to 1.
	DocWeight float64
	// PruneBelow retires pairs whose faded weight drops below this value: the
	// remaining weight is cancelled with one final negative delta and the
	// pair is dropped from the aggregation state, bounding memory by the set
	// of recently co-mentioned pairs rather than all pairs ever seen.
	// Defaults to 1e-3; a negative value disables pruning (every pair is
	// tracked forever).
	PruneBelow float64
	// DecayMode must be DecayRescale, the zero value.
	DecayMode DecayMode
}

func (c AggregatorConfig) withDefaults() AggregatorConfig {
	if c.Decay == 0 {
		c.Decay = 0.5
	}
	if c.DocWeight == 0 {
		c.DocWeight = 1
	}
	switch {
	case c.PruneBelow == 0:
		c.PruneBelow = 1e-3
	case c.PruneBelow < 0:
		c.PruneBelow = 0
	}
	return c
}

// Validate reports configuration errors.
func (c AggregatorConfig) Validate() error {
	switch {
	case c.EpochLength < 1:
		return fmt.Errorf("stream: epoch length must be ≥ 1, got %d", c.EpochLength)
	case !(c.Decay > 0 && c.Decay <= 1): // written so that NaN fails it
		return fmt.Errorf("stream: decay %v outside (0, 1]", c.Decay)
	case c.DocWeight <= 0 || math.IsInf(c.DocWeight, 0) || math.IsNaN(c.DocWeight):
		return fmt.Errorf("stream: document weight %v must be positive and finite", c.DocWeight)
	case math.IsNaN(c.PruneBelow):
		return fmt.Errorf("stream: prune threshold is NaN")
	case c.DecayMode != DecayRescale:
		return fmt.Errorf("stream: invalid decay mode %d (only rescale, 0, remains)", int(c.DecayMode))
	}
	return nil
}

// AggregatorStats summarises the work an Aggregator has performed.
type AggregatorStats struct {
	Docs         int   // documents consumed
	PairUpdates  int   // positive co-occurrence updates emitted
	DecayUpdates int   // negative cancellation updates emitted, one per retired pair
	Retired      int   // pairs fully cancelled and dropped by PruneBelow
	Epochs       int64 // fading epochs applied
	TrackedPairs int   // pairs currently carrying weight

	ThresholdUpdates int // threshold batch units emitted (epoch ticks with fading)
	Renorms          int // folds of λ into the stored weights (density.Fold)
	// EpochPairTouches counts, cumulatively, the tracked pairs an epoch tick
	// examined: the retirement entries popped (retirements and stale
	// re-keys) plus the pairs a fold relabelled. The O(1)-epoch claim is
	// pinned as "a no-retirement epoch leaves this unchanged"; the per-pair
	// sweep of the paper would add the full tracked count every tick.
	EpochPairTouches int
}

// String formats the one-line summary printed by the stories CLI.
func (s AggregatorStats) String() string {
	return fmt.Sprintf("aggregate{docs=%d pair-updates=%d decay-updates=%d retired=%d epochs=%d tracked-pairs=%d threshold-updates=%d renorms=%d epoch-pair-touches=%d}",
		s.Docs, s.PairUpdates, s.DecayUpdates, s.Retired, s.Epochs, s.TrackedPairs,
		s.ThresholdUpdates, s.Renorms, s.EpochPairTouches)
}

// pairKey packs an ordered vertex pair (a < b) into one comparable word.
type pairKey uint64

func makePairKey(a, b graph.Vertex) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey(uint64(uint32(a))<<32 | uint64(uint32(b)))
}

func (k pairKey) vertices() (a, b graph.Vertex) {
	return graph.Vertex(k >> 32), graph.Vertex(uint32(k))
}

// retiredPair is a popped-and-confirmed retirement awaiting sorted emission.
type retiredPair struct {
	key pairKey
	w   float64 // normalized weight cancelled
}

// Aggregator converts a DocumentSource into the edge-weight batch stream the
// engine consumes, the first stage of the documents→stories pipeline. For
// every document it emits one positive update per entity pair, and when the
// document time crosses an epoch boundary it fades first: stored weights are
// normalized (w' = w/λ), so an epoch emits one threshold unit carrying the
// new λ plus the exact cancellations of pairs that expired below PruneBelow.
// It mirrors the exact weight the engine's graph holds for each pair, so
// weights never drift and the clamp-at-zero path is never hit. Pairs and
// cancellations are emitted in sorted order, so equal document streams give
// equal batch streams: the story pipeline is reproducible.
type Aggregator struct {
	cfg     AggregatorConfig
	docs    DocumentSource
	weights *pairTable

	started  bool
	epoch    int64 // current fading epoch (time / EpochLength)
	lastTime int64

	// The last ingested document's batches, until NextBatch hands them out:
	// the epoch unit (pendingThreshold non-nil; its updates are tickUpdates),
	// then the document's co-occurrence deltas.
	pendingThreshold *ThresholdUpdate
	thresholdUnit    ThresholdUpdate // backing store, reused per epoch
	tickUpdates      []Update        // the epoch's cancellations
	docUpdates       []Update

	lambda     float64       // cumulative decay scale λ
	retire     retireQueue   // one entry per tracked pair: largest expiry scale fires first
	retiredBuf []retiredPair // reusable scratch for confirmed retirements
	pairBuf    []pairKey     // reusable per-document pair-expansion scratch

	stats AggregatorStats
}

// NewAggregator wires docs through the co-occurrence aggregation. It returns
// an error for invalid configurations.
func NewAggregator(docs DocumentSource, cfg AggregatorConfig) (*Aggregator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Aggregator{cfg: cfg, docs: docs, weights: newPairTable(), lambda: 1}, nil
}

// Stats returns a snapshot of the work counters.
func (g *Aggregator) Stats() AggregatorStats {
	s := g.stats
	s.TrackedPairs = g.weights.len()
	return s
}

// NextBatch implements BatchSource: the queued deltas are handed out in their
// natural coalescible groups — each epoch tick as one batch (Decay true,
// carrying the threshold unit) and each document's positive co-occurrence
// deltas as another — so a batched replay ships one engine tick per epoch or
// document instead of one Process per pair. An epoch tick's batch usually
// carries no updates (no retirements) but is always emitted: the threshold
// unit is the tick. A document without pairs contributes no batch.
func (g *Aggregator) NextBatch() (Batch, error) {
	for g.pendingThreshold == nil && len(g.docUpdates) == 0 {
		if err := g.ingest(); err != nil {
			return Batch{}, err
		}
	}
	if t := g.pendingThreshold; t != nil {
		g.pendingThreshold = nil
		return Batch{Updates: g.tickUpdates, Decay: true, Threshold: t}, nil
	}
	// The batch keeps the backing array, which the next ingest overwrites:
	// valid until the next NextBatch call, as BatchSource promises.
	b := Batch{Updates: g.docUpdates}
	g.docUpdates = g.docUpdates[:0]
	return b, nil
}

// ingest consumes one document, queueing its epoch tick (if any) and
// co-occurrence updates.
func (g *Aggregator) ingest() (err error) {
	doc, err := g.docs.Next()
	if err != nil {
		return err // io.EOF ends the update stream with the document stream
	}
	g.pairBuf = appendDocPairs(g.pairBuf[:0], doc.Entities)
	return g.ingestExpanded(doc.Time, g.pairBuf)
}

// appendDocPairs appends a document's co-occurrence pair keys to buf in
// emission order. Entity sets are sorted and strictly increasing, so the
// nested i<j enumeration yields keys already in sorted order with a < b —
// no swap, no sort. This is the O(m²) half of ingestion.
func appendDocPairs(buf []pairKey, ents vset.Set) []pairKey {
	for i := 0; i < len(ents); i++ {
		for j := i + 1; j < len(ents); j++ {
			buf = append(buf, pairKey(uint64(uint32(ents[i]))<<32|uint64(uint32(ents[j]))))
		}
	}
	return buf
}

// ingestExpanded is the sequential core of ingest: it queues the epoch tick
// (if docTime crossed a boundary) and the document's co-occurrence updates,
// given the document's pre-expanded pair keys. Every weight-table mutation,
// retirement-queue push, and λ tick happens here, in document order. pairs is
// borrowed for the duration of the call.
func (g *Aggregator) ingestExpanded(docTime int64, pairs []pairKey) error {
	if g.started && docTime < g.lastTime {
		return fmt.Errorf("stream: document time went backwards: %d after %d", docTime, g.lastTime)
	}
	g.tickUpdates = g.tickUpdates[:0]
	g.docUpdates = g.docUpdates[:0]
	g.pendingThreshold = nil
	g.stats.Docs++

	epoch := docTime / g.cfg.EpochLength
	if !g.started {
		g.started = true
		g.epoch = epoch
	} else if epoch > g.epoch {
		g.tickEpoch(epoch - g.epoch)
		g.epoch = epoch
	}
	g.lastTime = docTime

	docWeight := g.cfg.DocWeight / g.lambda
	for _, k := range pairs {
		w, tracked := g.weights.add(k, docWeight)
		if !tracked && g.cfg.PruneBelow > 0 {
			// A pair that gains more weight later keeps this (then stale-high)
			// entry: it fires early, is verified on pop, and gets re-keyed —
			// see retireExpired.
			g.retire.pushFirst(k, g.expiryLambda(w))
		}
		a, b := k.vertices()
		g.docUpdates = append(g.docUpdates, Update{A: a, B: b, Delta: docWeight})
		g.stats.PairUpdates++
	}
	return nil
}

// expiryLambda returns the cumulative scale below which a pair of normalized
// weight w has faded under PruneBelow (w·λ < PruneBelow ⟺ λ < PruneBelow/w).
// The slight inflation makes boundary cases fire one tick early — where the
// pop-time verification catches them — rather than one tick late, which
// would diverge from sweeping every pair each epoch.
func (g *Aggregator) expiryLambda(w float64) float64 {
	return g.cfg.PruneBelow / w * (1 + 1e-12)
}

// tickEpoch is the O(1) epoch tick: fold the elapsed decay into the
// cumulative scale λ (stored weights are untouched — they are normalized),
// retire only the pairs whose expiry scale the new λ crossed, and queue one
// threshold unit carrying λ for the engine. A λ below the fold floor is then
// split by density.Fold into m·2^k and folded into the stored weights
// (renormalize); the unit still carries the unsplit λ, from which the engine
// decides the same fold.
func (g *Aggregator) tickEpoch(elapsed int64) {
	g.stats.Epochs += elapsed
	factor := math.Pow(g.cfg.Decay, float64(elapsed))
	if factor == 1 {
		return
	}
	g.lambda *= max(factor, maxTickFade)
	if g.cfg.PruneBelow > 0 {
		g.retireExpired()
	}
	g.thresholdUnit = ThresholdUpdate{Scale: g.lambda}
	g.pendingThreshold = &g.thresholdUnit
	g.stats.ThresholdUpdates++
	if m, k := density.Fold(g.lambda); k != 0 {
		g.renormalize(m, k)
	}
}

// retireExpired pops every queued entry whose recorded expiry scale the
// current λ has crossed. Each pop is verified against the authoritative
// weight, found with one probe that also serves the deletion: confirmed
// expiries are deleted and their exact normalized cancellation queued (in
// sorted pair order, so the stream stays deterministic); stale-high entries —
// the pair gained weight since the entry was pushed — are re-keyed into the
// heap with the accurate expiry scale, clamped to the current λ so a float
// boundary can't re-fire them within the same tick. Which entries a tick pops
// depends only on the expiry scales, so neither the pop order nor the part
// an entry waits in changes what the tick emits.
func (g *Aggregator) retireExpired() {
	retired := g.retiredBuf[:0]
	for {
		e, due := g.retire.popDue(g.lambda)
		if !due {
			break
		}
		g.stats.EpochPairTouches++
		i, tracked := g.weights.find(e.key)
		if !tracked {
			continue // defensive: the single-live-entry invariant makes this unreachable
		}
		w := g.weights.vals[i]
		if w*g.lambda < g.cfg.PruneBelow {
			g.weights.deleteAt(i)
			retired = append(retired, retiredPair{key: e.key, w: w})
			g.stats.Retired++
			continue
		}
		exp := g.expiryLambda(w)
		if exp > g.lambda {
			exp = g.lambda
		}
		g.retire.push(retireEntry{key: e.key, expLambda: exp})
	}
	slices.SortFunc(retired, func(x, y retiredPair) int {
		switch {
		case x.key < y.key:
			return -1
		case x.key > y.key:
			return 1
		}
		return 0
	})
	for _, r := range retired {
		a, b := r.key.vertices()
		g.tickUpdates = append(g.tickUpdates, Update{A: a, B: b, Delta: -r.w})
		g.stats.DecayUpdates++
	}
	g.retiredBuf = retired
}

// renormalize folds λ = m·2^k into the stored weights: every weight is
// multiplied by 2^k and every expiry scale by 2^-k, both exact, and λ
// restarts at m. Real weights w'·λ are unchanged, nothing is emitted, and a
// uniform exact scaling keeps the retirement queue in order. A weight that
// the relabel takes below the normal range rounds exactly as the engine's
// copy of it does; one that reaches 0 — possible only without pruning — is
// dropped, as the engine's graph drops the edge.
func (g *Aggregator) renormalize(m float64, k int) {
	g.stats.EpochPairTouches += g.weights.ldexp(k)
	g.retire.ldexp(-k)
	g.lambda = m
	g.stats.Renorms++
}
