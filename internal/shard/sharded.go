package shard

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/graph"
)

// Config configures a ShardedEngine. Kept only for bench/par.go, ROADMAP
// item 7.
type Config struct {
	// Shards is the number of single-threaded workers K; must be ≥ 1.
	Shards int
	// Engine configures every worker's embedded core.Engine.
	Engine core.Config
	// Overlap selects the delivery policy. The zero value is OverlapScoped:
	// each update is fully processed only by the workers whose interest maps
	// want it, the rest take the ApplyOnly path. OverlapMirror restores the
	// full broadcast; both produce bit-identical output.
	Overlap Overlap
	// BatchSize is the number of updates broadcast to the workers per batch.
	// Larger batches amortise channel traffic; smaller ones reduce merge
	// latency. Defaults to 128.
	BatchSize int
	// QueueDepth is the number of batches buffered per worker, bounding how
	// far fast shards can run ahead of the slowest one (chain ownership is
	// skewed, so runway absorbs per-shard load bursts). Defaults to 32.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	return c
}

// SeqEvent is one merged output event tagged with the 1-based global sequence
// number of the update that produced it. Kept only for bench/par.go, ROADMAP
// item 7.
type SeqEvent struct {
	Seq   uint64
	Event core.Event
}

// SeqSink receives the merged, sequence-numbered event stream. Like
// core.EventSink, implementations must not call back into the engine; they
// are invoked from the merge goroutine. Kept only for bench/par.go, ROADMAP
// item 7.
type SeqSink interface {
	EmitSeq(ev SeqEvent)
}

// SeqSinkFunc adapts a plain function to the SeqSink interface.
type SeqSinkFunc func(ev SeqEvent)

// EmitSeq implements SeqSink.
func (f SeqSinkFunc) EmitSeq(ev SeqEvent) { f(ev) }

// ShardLoad summarises the work one shard performed. Delivered and Applied
// partition the shard's discovery work units: stream updates in per-update
// delivery, coalesced positive pairs in batch delivery. Delivered units ran
// the full discovery/maintenance path; Applied units were provably inert for
// this shard and only updated its graph replica (scoped delivery). Under
// OverlapMirror every unit is Delivered; under OverlapScoped
// Delivered+Applied still covers the full stream — every replica applies
// every weight change — but Delivered alone measures the shard's share of
// the expensive work.
type ShardLoad struct {
	Shard     int
	Delivered uint64        // work units fully processed on this shard
	Applied   uint64        // work units taken on the ApplyOnly / skip path
	Batches   uint64        // dispatch batches the worker processed
	Busy      time.Duration // wall time spent inside the worker engine
	RawEvents uint64        // events the worker emitted before merge dedup
}

// DeliveryFraction returns Delivered / (Delivered + Applied): the fraction
// of this shard's discovery work units that needed full processing. Mirror
// delivery pins it at 1; scoped delivery drives it toward 1/K plus the
// shard's interest overlap.
func (l ShardLoad) DeliveryFraction() float64 {
	total := l.Delivered + l.Applied
	if total == 0 {
		return 0
	}
	return float64(l.Delivered) / float64(total)
}

// Stats aggregates the sharded deployment's work counters.
type Stats struct {
	// Overlap is the delivery policy the deployment ran under.
	Overlap Overlap
	// Accepted counts stream updates accepted by the deployment (updates
	// inside coalesced batches count individually).
	Accepted uint64
	// Aggregate is the sum of the per-shard engine counters. Under mirror
	// delivery Updates counts every (update, shard) application — K× the
	// stream length — while under scoped delivery each worker's Updates
	// counts only the updates delivered to it (its AppliedOnly counter holds
	// the rest). Index gauges sum worker index sizes, so duplicated holdings
	// across shards show up as Aggregate.IndexedDense exceeding a single
	// engine's.
	Aggregate core.Stats
	// PerShard holds each worker engine's own counters.
	PerShard []core.Stats
	// Loads holds the per-shard delivery and throughput accounting.
	Loads []ShardLoad
	// MergedEvents counts events forwarded downstream after deduplication;
	// this matches the single-engine event count on the same stream.
	MergedEvents uint64
	// DedupedEvents counts duplicate events dropped at the merge barrier
	// (the same subgraph transition discovered by more than one shard).
	DedupedEvents uint64
}

// MeanDeliveryFraction returns the mean per-shard DeliveryFraction — the
// headline scoped-delivery number: 1.0 under mirror, ideally approaching 1/K
// plus the measured interest overlap under scoped delivery.
func (s Stats) MeanDeliveryFraction() float64 {
	if len(s.Loads) == 0 {
		return 0
	}
	var sum float64
	for _, l := range s.Loads {
		sum += l.DeliveryFraction()
	}
	return sum / float64(len(s.Loads))
}

// batch is one broadcast unit: a contiguous run of the update stream, or —
// when coalesced — one whole epoch-style batch that every worker applies via
// ProcessBatchRouted and the merger sequences as a single logical tick.
type batch struct {
	firstSeq  uint64
	updates   []core.Update
	coalesced bool
	threshold bool    // rescaled-decay epoch unit (implies coalesced handling)
	scale     float64 // cumulative decay scale λ when threshold is set
}

// tickEvents is one non-empty logical tick of a worker's batch result: off is
// the tick's offset from the batch's firstSeq.
type tickEvents struct {
	off int
	evs []core.Event
}

// workerResult carries one shard's events for one batch, sparsely: only ticks
// that produced events appear, in ascending offset order (one offset per
// update for micro-batches, offset 0 only for coalesced batches). ticks is
// the number of sequence slots the batch spans regardless of sparsity, which
// is what advances the merge barrier. delivered/applied carry the shard's
// scoped-delivery accounting for the batch (see ShardLoad).
type workerResult struct {
	shard     int
	firstSeq  uint64
	ticks     int
	delivered uint64
	applied   uint64
	events    []tickEvents
	busy      time.Duration
}

type worker struct {
	id       int
	eng      *core.Engine
	in       chan batch
	seed     func(a, b core.Vertex) bool // per-pair seeding for coalesced batches
	interest *InterestMap                // delivery filter, fed by the engine's index
	scoped   bool                        // Overlap == OverlapScoped
}

// ShardedEngine partitions DynDens across K single-threaded core.Engine
// workers and merges their event streams into one deterministic,
// sequence-numbered total order that matches the single-engine stream on the
// same updates.
//
// Every worker's graph replica applies every weight change (dense subgraphs
// that span shard boundaries stay exact for any cardinality ≤ Nmax), but
// under the default scoped overlap policy an update is *fully processed* only
// by the workers whose interest maps want it — the designated seeder (owner
// of the canonical endpoint), subscribers whose indexes touch an endpoint,
// and star-family holders whose replica-local StarNeedsPositive check fires;
// everyone else takes the O(log deg) ApplyOnly path.
// Because discovery chains only ever grow already-indexed subgraphs, the
// expensive exploration and index maintenance partitions across shards by
// chain ownership, while the same subgraph reached from differently-owned
// roots is collapsed by the merger's output-dense tracking set.
//
// Process/ProcessAll are asynchronous and must be called from a single
// producer goroutine; Flush, Close, Stats, and the query methods may be
// called from any goroutine and block until all accepted updates are merged.
//
// Kept only for bench/par.go, ROADMAP item 7: no command of the CLI shards
// its engine.
//
// Locking: produceMu serialises producers and flushers — it owns the staging
// batch and the exclusive right to send on the worker channels — while mu
// owns the merge-side state (issued/merged barrier, tracked set, loads). No
// goroutine ever blocks on a channel while holding mu, so the merger can
// always drain worker results; that invariant is what makes the pipeline
// deadlock-free under backpressure.
type ShardedEngine struct {
	cfg     Config
	router  Router
	workers []*worker
	results chan workerResult

	// Producer state.
	produceMu sync.Mutex
	cur       batch
	nextSeq   uint64 // sequence number the next accepted logical tick will get
	accepted  uint64 // updates accepted (a coalesced batch counts its length)
	closed    bool

	// Merge-barrier and merge state.
	mu     sync.Mutex
	cond   *sync.Cond
	issued uint64 // batches dispatched
	merged uint64 // batches merged

	sink      core.EventSink
	seqSink   SeqSink
	tracked   map[string]bool // currently output-dense set keys, post-merge
	pending   map[uint64][]workerResult
	nextMerge uint64 // firstSeq of the next batch to merge
	mergedEv  uint64
	dedupedEv uint64
	loads     []ShardLoad
	cursorBuf []int        // mergeLocked's per-shard sparse-result cursors
	evBuf     []core.Event // mergeLocked's per-tick gather buffer

	workerWG sync.WaitGroup
	mergerWG sync.WaitGroup
}

// New creates a sharded engine and starts its worker and merger goroutines.
// The engine must be Closed to release them. Kept only for bench/par.go,
// ROADMAP item 7.
func New(cfg Config) (*ShardedEngine, error) {
	cfg = cfg.withDefaults()
	router, err := NewRouter(cfg.Shards)
	if err != nil {
		return nil, err
	}
	se := &ShardedEngine{
		cfg:       cfg,
		router:    router,
		results:   make(chan workerResult, cfg.Shards*2),
		nextSeq:   1,
		nextMerge: 1,
		tracked:   make(map[string]bool),
		pending:   make(map[uint64][]workerResult),
		loads:     make([]ShardLoad, cfg.Shards),
	}
	se.cond = sync.NewCond(&se.mu)
	for i := 0; i < cfg.Shards; i++ {
		se.loads[i].Shard = i
		eng, err := core.New(cfg.Engine)
		if err != nil {
			return nil, err
		}
		id := i
		// The interest map mirrors the worker engine's index membership; it
		// is installed unconditionally (transitions are rare and the hook is
		// one map write) so stats and tests can inspect it in either overlap
		// policy, but only scoped delivery consults it.
		im := NewInterestMap(router, id)
		eng.SetMembershipListener(im.Observe)
		se.workers = append(se.workers, &worker{
			id:  i,
			eng: eng,
			in:  make(chan batch, cfg.QueueDepth),
			// Per-pair seeding mirrors Router.Primary: the owner of the
			// canonical (smaller) endpoint seeds the pair's discovery chain.
			seed: func(a, b core.Vertex) bool {
				if b < a {
					a = b
				}
				return router.Owner(a) == id
			},
			interest: im,
			scoped:   cfg.Overlap == OverlapScoped,
		})
	}
	for _, w := range se.workers {
		se.workerWG.Add(1)
		go se.runWorker(w)
	}
	se.mergerWG.Add(1)
	go se.runMerger()
	return se, nil
}

// MustNew is New that panics on error; intended for tests and examples.
func MustNew(cfg Config) *ShardedEngine {
	se, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return se
}

// Config returns the effective configuration (with defaults applied).
func (se *ShardedEngine) Config() Config { return se.cfg }

// Router returns the vertex→shard router.
func (se *ShardedEngine) Router() Router { return se.router }

// SetSink installs the destination for the merged event stream. It must be
// called before the first Process. The sink observes the deduplicated events
// in the deterministic merged order; it is invoked from the merge goroutine
// and must not call back into the engine.
func (se *ShardedEngine) SetSink(s core.EventSink) {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.sink = s
}

// SetSeqSink installs a sequence-aware sink; it may be combined with SetSink.
// Like SetSink it must be called before the first Process.
func (se *ShardedEngine) SetSeqSink(s SeqSink) {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.seqSink = s
}

// Process accepts one update for asynchronous processing. Events reach the
// installed sinks after the update's batch clears the merge barrier; call
// Flush to force and await completion. Process must not be called after
// Close, and is single-producer: concurrent Process calls are not allowed
// (concurrent Flush/Stats/queries are).
func (se *ShardedEngine) Process(u core.Update) {
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	if se.closed {
		panic("shard: Process called after Close")
	}
	if se.cur.updates == nil {
		se.cur = batch{firstSeq: se.nextSeq, updates: make([]core.Update, 0, se.cfg.BatchSize)}
	}
	se.cur.updates = append(se.cur.updates, u)
	se.nextSeq++
	se.accepted++
	if len(se.cur.updates) >= se.cfg.BatchSize {
		se.sendLocked()
	}
}

// ProcessBatch accepts a whole batch of updates as ONE logical tick: every
// worker applies it through core.Engine.ProcessBatchRouted (seeding only the
// pairs it owns) and the merger sequences the combined net events under a
// single sequence number — so an epoch's decay burst crosses the worker
// channels and the merge barrier once, not once per pair. Any micro-batched
// Process updates staged so far are dispatched first, preserving stream
// order. Like Process it is asynchronous and single-producer; an empty batch
// still consumes a sequence number (a no-op tick), keeping downstream
// boundary accounting aligned with the single-engine batch mode.
func (se *ShardedEngine) ProcessBatch(updates []core.Update) {
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	if se.closed {
		panic("shard: ProcessBatch called after Close")
	}
	se.sendLocked()
	b := batch{
		firstSeq:  se.nextSeq,
		updates:   append([]core.Update(nil), updates...),
		coalesced: true,
	}
	se.nextSeq++ // one sequence number for the whole batch
	se.accepted += uint64(len(updates))
	se.mu.Lock()
	se.issued++
	se.mu.Unlock()
	for _, w := range se.workers {
		w.in <- b
	}
}

// ProcessThresholdBatch accepts one rescaled-decay epoch unit as ONE logical
// tick: every worker absorbs the retirement cancellations and moves its
// threshold to baseT/scale through core.Engine.ProcessThresholdBatchRouted,
// and the merger sequences the combined net events under a single sequence
// number — a decay epoch crosses the worker channels and the merge barrier
// exactly once regardless of tracked-pair count. Threshold units broadcast to
// every worker in both overlap policies (every replica's threshold schedule
// must move in lockstep); the cancellations are negative, so scoped
// delivery's positive-pair skip never applies to them. Like ProcessBatch it
// is asynchronous and single-producer, and an empty unit still consumes a
// sequence number.
//
// The scale is validated producer-side, BEFORE the unit broadcasts: a corrupt
// scale (from a damaged replayed stream) surfaces here as a returned error the
// caller can act on, instead of panicking K worker goroutines. The workers'
// own engines still treat an invalid scale as a caller invariant violation —
// by the time a unit reaches them it has passed this check.
func (se *ShardedEngine) ProcessThresholdBatch(scale float64, updates []core.Update) error {
	if math.IsNaN(scale) || scale <= 0 || scale > 1 {
		return fmt.Errorf("shard: threshold batch scale %v outside (0, 1]", scale)
	}
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	if se.closed {
		panic("shard: ProcessThresholdBatch called after Close")
	}
	se.sendLocked()
	b := batch{
		firstSeq:  se.nextSeq,
		updates:   append([]core.Update(nil), updates...),
		coalesced: true,
		threshold: true,
		scale:     scale,
	}
	se.nextSeq++ // one sequence number for the whole epoch unit
	se.accepted += uint64(len(updates))
	se.mu.Lock()
	se.issued++
	se.mu.Unlock()
	for _, w := range se.workers {
		w.in <- b
	}
	return nil
}

// ProcessAll accepts a sequence of updates; the slice may be reused by the
// caller as soon as ProcessAll returns.
func (se *ShardedEngine) ProcessAll(updates []core.Update) {
	for _, u := range updates {
		se.Process(u)
	}
}

// sendLocked broadcasts the staged batch to every worker. It requires
// produceMu (never mu): the sends may block on worker backpressure, and the
// merger must stay free to drain results in the meantime.
func (se *ShardedEngine) sendLocked() {
	if len(se.cur.updates) == 0 {
		return
	}
	b := se.cur
	se.cur = batch{}
	se.mu.Lock()
	se.issued++
	se.mu.Unlock()
	for _, w := range se.workers {
		w.in <- b
	}
}

// quiesceLocked dispatches any partial batch and waits until every issued
// batch has been merged. It requires produceMu, which also excludes new
// dispatches: when it returns, all workers are idle and their state is safe
// to read until produceMu is released.
func (se *ShardedEngine) quiesceLocked() {
	se.sendLocked()
	se.mu.Lock()
	for se.merged != se.issued {
		se.cond.Wait()
	}
	se.mu.Unlock()
}

// Flush dispatches any partially filled batch and blocks until every accepted
// update has been processed by all shards and merged downstream.
func (se *ShardedEngine) Flush() {
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	se.quiesceLocked()
}

// Close flushes outstanding work and stops the worker and merger goroutines.
// It is idempotent; Process must not be called afterwards.
func (se *ShardedEngine) Close() error {
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	if se.closed {
		return nil
	}
	se.quiesceLocked()
	se.closed = true
	for _, w := range se.workers {
		close(w.in)
	}
	se.workerWG.Wait()
	close(se.results)
	se.mergerWG.Wait()
	return nil
}

// Updates returns the number of updates accepted so far (the updates inside
// coalesced batches count individually, though each batch holds one sequence
// number).
func (se *ShardedEngine) Updates() uint64 {
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	return se.accepted
}

// Stats flushes and returns the deployment-wide statistics. The per-engine
// reads are safe: after the quiesce barrier every worker is idle, all its
// writes happen-before the merger's barrier signal, and produceMu excludes
// new dispatches until Stats returns.
func (se *ShardedEngine) Stats() Stats {
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	se.quiesceLocked()
	se.mu.Lock()
	out := Stats{
		Overlap:       se.cfg.Overlap,
		Accepted:      se.accepted,
		PerShard:      make([]core.Stats, len(se.workers)),
		Loads:         append([]ShardLoad(nil), se.loads...),
		MergedEvents:  se.mergedEv,
		DedupedEvents: se.dedupedEv,
	}
	se.mu.Unlock()
	for i, w := range se.workers {
		ps := w.eng.Stats()
		out.PerShard[i] = ps
		out.Aggregate.Add(ps)
	}
	return out
}

// OutputDenseKeys flushes and returns the canonical set keys of the merged
// output-dense result set — the view a downstream consumer of the merged
// event stream holds — sorted lexicographically.
func (se *ShardedEngine) OutputDenseKeys() []string {
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	se.quiesceLocked()
	se.mu.Lock()
	defer se.mu.Unlock()
	keys := make([]string, 0, len(se.tracked))
	for k := range se.tracked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// OutputDenseCount flushes and returns the size of the merged output-dense
// result set.
func (se *ShardedEngine) OutputDenseCount() int {
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	se.quiesceLocked()
	se.mu.Lock()
	defer se.mu.Unlock()
	return len(se.tracked)
}

// Graph flushes and returns shard 0's graph replica. Every replica applies
// the full update stream, so any one of them is the exact current graph; the
// returned graph must only be read before the next Process call.
func (se *ShardedEngine) Graph() *graph.Graph {
	se.produceMu.Lock()
	defer se.produceMu.Unlock()
	se.quiesceLocked()
	return se.workers[0].eng.Graph()
}

func (se *ShardedEngine) runWorker(w *worker) {
	defer se.workerWG.Done()
	for b := range w.in {
		start := time.Now()
		// Workers run their engines in slice mode: the per-tick event
		// slices cross the results channel to the merge goroutine, so the
		// sets must be private copies — the engine's CollectorSink declares
		// RetainsSets and the engine clones each emitted set out of its
		// scratch. Everything else (neighbourhood merges, candidate sets,
		// index snapshots) stays in the worker engine's own reusable
		// buffers, so each shard inherits the allocation-free exploration
		// path. Results are sparse: only event-bearing ticks are recorded,
		// so a batch whose updates all land on other shards' chains crosses
		// the channel as a counter-only result with no per-tick slice at all
		// (the old dense [][]Event cost K·len(batch) slice headers per batch
		// regardless of how few ticks produced anything).
		res := workerResult{shard: w.id, firstSeq: b.firstSeq}
		if b.coalesced {
			// Whole-epoch shipping: the batch is one logical tick, so the
			// netted events land under a single sequence slot. Delivery
			// accounting comes from the engine's own pair counters: the
			// weight phase always covers the full batch, and scoping decides
			// per positive pair inside batchDiscover.
			res.ticks = 1
			before := w.eng.Stats()
			var evs []core.Event
			switch {
			case b.threshold && w.scoped:
				evs = w.eng.ProcessThresholdBatchScoped(b.scale, b.updates, w.seed)
			case b.threshold:
				evs = w.eng.ProcessThresholdBatchRouted(b.scale, b.updates, w.seed)
			case w.scoped:
				evs = w.eng.ProcessBatchScoped(b.updates, w.seed)
			default:
				evs = w.eng.ProcessBatchRouted(b.updates, w.seed)
			}
			after := w.eng.Stats()
			res.delivered = after.BatchPairs - before.BatchPairs
			res.applied = after.BatchPairSkips - before.BatchPairSkips
			if len(evs) > 0 {
				res.events = []tickEvents{{off: 0, evs: evs}}
			}
		} else {
			res.ticks = len(b.updates)
			for i, u := range b.updates {
				// The delivery decision consults the worker's own live
				// interest map, never a dispatcher-side snapshot: interest
				// can grow mid-batch through this worker's own admissions,
				// and checking at processing time (in stream order, on the
				// worker goroutine) means there is no staleness window in
				// which a newly interesting update could slip past.
				if w.scoped && !w.interest.Wants(u) {
					// Residual star case: a positive edge can extend an
					// ImplicitTooDense family whose base excludes both
					// endpoints, but only when an endpoint was previously
					// disconnected from the base — an exact, replica-local
					// check (see core.Engine.StarNeedsPositive).
					if !(u.Delta > 0 && w.interest.HasStars() && w.eng.StarNeedsPositive(u.A, u.B, u.Delta)) {
						w.eng.ApplyOnly(u)
						res.applied++
						continue
					}
				}
				res.delivered++
				evs := w.eng.ProcessRouted(u, se.router.Primary(u) == w.id)
				if len(evs) > 0 {
					res.events = append(res.events, tickEvents{off: i, evs: evs})
				}
			}
		}
		res.busy = time.Since(start)
		se.results <- res
	}
}

// runMerger aligns the per-shard result streams batch by batch and merges
// them in stream order into the sinks. The merger acquires only mu, and no
// mu holder ever blocks on a channel, so the drain always makes progress.
func (se *ShardedEngine) runMerger() {
	defer se.mergerWG.Done()
	for res := range se.results {
		se.mu.Lock()
		se.pending[res.firstSeq] = append(se.pending[res.firstSeq], res)
		for {
			ready := se.pending[se.nextMerge]
			if len(ready) != len(se.workers) {
				break
			}
			delete(se.pending, se.nextMerge)
			se.mergeLocked(ready)
			se.nextMerge += uint64(ready[0].ticks)
			se.merged++
			se.cond.Broadcast()
		}
		se.mu.Unlock()
	}
}

// mergeLocked merges one batch: for each logical tick (update, or whole
// coalesced batch), the events of all shards are collected, canonically
// ordered, and deduplicated against the tracked output-dense set, so the same
// subgraph transition discovered by several shards is forwarded exactly once.
// Within one tick all events for a given subgraph share a kind — for plain
// updates because positive updates only emit Became and negative only Ceased;
// for coalesced batches because each worker nets its transitions against the
// shared final graph state and final-score eviction forbids an evict-readmit
// flap inside one batch — which makes the dedup outcome independent of shard
// arrival order.
func (se *ShardedEngine) mergeLocked(ready []workerResult) {
	firstSeq := ready[0].firstSeq
	for i := range ready {
		res := &ready[i]
		load := &se.loads[res.shard]
		load.Batches++
		load.Busy += res.busy
		load.Delivered += res.delivered
		load.Applied += res.applied
		for _, te := range res.events {
			load.RawEvents += uint64(len(te.evs))
		}
	}
	// K-way merge of the sparse per-shard tick lists by offset: only ticks
	// for which some shard produced events are visited at all, so merge cost
	// scales with the event volume, not the batch length × shard count. The
	// cursor and gather buffers are merger-owned and reused across batches.
	if cap(se.cursorBuf) < len(ready) {
		se.cursorBuf = make([]int, len(ready))
	}
	cur := se.cursorBuf[:len(ready)]
	for i := range cur {
		cur[i] = 0
	}
	for {
		off := -1
		for s := range ready {
			if cur[s] < len(ready[s].events) {
				if o := ready[s].events[cur[s]].off; off == -1 || o < off {
					off = o
				}
			}
		}
		if off == -1 {
			return
		}
		buf := se.evBuf[:0]
		for s := range ready {
			if cur[s] < len(ready[s].events) && ready[s].events[cur[s]].off == off {
				buf = append(buf, ready[s].events[cur[s]].evs...)
				cur[s]++
			}
		}
		se.evBuf = buf
		seq := firstSeq + uint64(off)
		slices.SortFunc(buf, core.CompareEvents)
		for _, ev := range buf {
			k := ev.Set.Key()
			switch ev.Kind {
			case core.BecameOutputDense:
				if se.tracked[k] {
					se.dedupedEv++
					continue
				}
				se.tracked[k] = true
			case core.CeasedOutputDense:
				if !se.tracked[k] {
					se.dedupedEv++
					continue
				}
				delete(se.tracked, k)
			}
			se.mergedEv++
			if se.sink != nil {
				se.sink.Emit(ev)
			}
			if se.seqSink != nil {
				se.seqSink.EmitSeq(SeqEvent{Seq: seq, Event: ev})
			}
		}
	}
}

// String summarises the deployment.
func (se *ShardedEngine) String() string {
	return fmt.Sprintf("sharded{shards=%d batch=%d overlap=%s}", se.cfg.Shards, se.cfg.BatchSize, se.cfg.Overlap)
}
