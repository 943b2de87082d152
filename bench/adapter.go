package main

// adapter.go is the ONLY file of the benchmark that imports the program's
// packages: every call into dyndens/internal/... lives here, so this file is
// the pinned API surface (bench/README.md lists it). A later PR that renames
// or removes one of these needs a [benchmark] PR first.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/persist"
	"dyndens/internal/serve"
	"dyndens/internal/shard"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// Types the rest of the benchmark names.
type (
	Update    = stream.Update
	Document  = stream.Document
	DocSource = stream.DocumentSource
	StoryRow  = story.Snapshot
)

// errStop is what a boundary hook returns to end a run at the boundary.
var errStop = errors.New("bench: stop at boundary")

// ---------------------------------------------------------------------------
// Raw engine (raw-churn)
// ---------------------------------------------------------------------------

type rawEngine struct {
	eng  *core.Engine
	sink core.CountingSink
}

func newRawEngine() (*rawEngine, error) {
	eng, err := core.New(core.Config{T: rawT, Nmax: rawNmax, EnableMaxExplore: true})
	if err != nil {
		return nil, err
	}
	r := &rawEngine{eng: eng}
	eng.SetSink(&r.sink)
	return r, nil
}

// engineWork is the deterministic work counter the stationarity check
// compares between the two halves of a window.
func engineWork(s core.Stats) int64 {
	return int64(s.Explorations + s.CheapExplores + s.Events)
}

func (r *rawEngine) work() int64 { return engineWork(r.eng.Stats()) }

func (r *rawEngine) process(u Update) { r.eng.Process(u) }
func (r *rawEngine) edges() int       { return r.eng.Graph().NumEdges() }

// ---------------------------------------------------------------------------
// Counts read from the layers' exported Stats()
// ---------------------------------------------------------------------------

// layerCounts is every exact count the per-layer metrics report.
type layerCounts struct {
	DocsIn, UpdatesOut, ThresholdUnits, RetiredPairs, EpochPairTouches, Renorms, TrackedPairs int64
	IngestExpandBusy, IngestProducerStall, IngestConsumerStall                                float64 // seconds

	Explorations, CheapExplores, Insertions, Evictions, MaxExploreSkips, Events int64
	MaxIndexNodes                                                               int64
	Became, Ceased                                                              int64
	OutputDense                                                                 int64
	IndexError                                                                  string

	ShardWorkerBusy, ShardBusySkew, ShardDeliveryFraction, ShardDedupRatio float64

	Records, Born, Merged, Died, LiveEnd int64

	Publishes, Boundaries int64

	Frames, BytesLogged, SnapshotsCut int64
}

func (c *layerCounts) addEngine(s core.Stats) {
	c.Explorations = int64(s.Explorations)
	c.CheapExplores = int64(s.CheapExplores)
	c.Insertions = int64(s.Insertions)
	c.Evictions = int64(s.Evictions)
	c.MaxExploreSkips = int64(s.MaxExploreSkips)
	c.Events = int64(s.Events)
	c.MaxIndexNodes = int64(s.MaxIndexNodes)
}

func (c *layerCounts) addAggregator(s stream.AggregatorStats) {
	c.DocsIn = int64(s.Docs)
	c.UpdatesOut = int64(s.PairUpdates + s.DecayUpdates)
	c.ThresholdUnits = int64(s.ThresholdUpdates)
	c.RetiredPairs = int64(s.Retired)
	c.EpochPairTouches = int64(s.EpochPairTouches)
	c.Renorms = int64(s.Renorms)
	c.TrackedPairs = int64(s.TrackedPairs)
}

func (c *layerCounts) addTracker(trk *story.Tracker, records int64) {
	s := trk.Stats()
	c.Records = records
	c.Born = int64(s.Born + s.Split)
	c.Merged = int64(s.Merged)
	c.Died = int64(s.Died)
	c.LiveEnd = int64(s.Live)
}

func (r *rawEngine) counts() layerCounts {
	var c layerCounts
	c.addEngine(r.eng.Stats())
	c.UpdatesOut = int64(r.eng.Stats().Updates)
	c.Became, c.Ceased = int64(r.sink.Became), int64(r.sink.Ceased)
	c.OutputDense = int64(r.eng.OutputDenseCount())
	c.IndexError = r.eng.ValidateIndex()
	return c
}

// ---------------------------------------------------------------------------
// Bench-owned shims at the layer boundaries
// ---------------------------------------------------------------------------

// docShim wraps a document source. Untraced it only runs the pull hook (the
// latency stamp); traced it also records a span around the inner Next. The
// hook runs before the inner Next on a source that always has the next
// document at hand (a file), so the latency includes reading and parsing it,
// and after it on a source that makes the pipeline wait for documents to
// arrive (pullAfter: the paced reader), so the latency excludes that wait.
type docShim struct {
	inner     DocSource
	pull      func()
	pullAfter bool
	tr        *tracer
	layer     layerID
}

func (d *docShim) Next() (Document, error) {
	if d.pull != nil && !d.pullAfter {
		d.pull()
	}
	if d.tr != nil {
		d.tr.begin(d.layer)
	}
	doc, err := d.inner.Next()
	if d.tr != nil {
		d.tr.end()
	}
	if d.pull != nil && d.pullAfter {
		d.pull()
	}
	return doc, err
}

// sinkShim sits between a single engine and its sink (tracker or builder):
// it counts events by kind and, traced, records a span per Emit/EndUpdate.
type sinkShim struct {
	inner          core.EventSink
	bound          core.UpdateBoundarySink
	became, ceased int64
	tr             *tracer
	layer          layerID
}

func (s *sinkShim) count(k core.EventKind) {
	if k == core.BecameOutputDense {
		s.became++
	} else {
		s.ceased++
	}
}

func (s *sinkShim) Emit(ev core.Event) {
	s.count(ev.Kind)
	if s.tr == nil {
		s.inner.Emit(ev)
		return
	}
	s.tr.begin(s.layer)
	s.inner.Emit(ev)
	s.tr.end()
}

func (s *sinkShim) EndUpdate() {
	if s.tr == nil {
		s.bound.EndUpdate()
		return
	}
	s.tr.begin(s.layer)
	s.bound.EndUpdate()
	s.tr.end()
}

// seqShim is sinkShim for the sharded engine's merger: it runs on the merge
// goroutine, and tells onSeq about every sequence change — the point where
// all earlier ticks are fully merged and visible.
type seqShim struct {
	inner          shard.SeqSink
	became, ceased int64
	lastSeq        uint64
	onSeq          func(seq uint64)
	tr             *tracer
}

func (s *seqShim) EmitSeq(ev shard.SeqEvent) {
	if ev.Seq != s.lastSeq {
		s.lastSeq = ev.Seq
		s.onSeq(ev.Seq)
	}
	if ev.Event.Kind == core.BecameOutputDense {
		s.became++
	} else {
		s.ceased++
	}
	if s.tr == nil {
		s.inner.EmitSeq(ev)
		return
	}
	s.tr.begin(lServeSink)
	s.inner.EmitSeq(ev)
	s.tr.end()
}

// batchShim wraps the pipelined front-end for the sharded drivers. Every
// batch it hands on is reported to note with the merger sequence number its
// last tick will carry, which is how document completions are recognised at
// the merger's sink.
type batchShim struct {
	front      *stream.Pipeline
	ticks      uint64
	thresholds int64
	note       func(isDoc bool, endSeq uint64)
}

func (b *batchShim) NextBatch() (stream.Batch, error) {
	batch, err := b.front.NextBatch()
	if err != nil {
		return batch, err
	}
	if batch.Threshold != nil {
		b.ticks++
		b.thresholds++
	} else {
		b.ticks += uint64(len(batch.Updates))
	}
	b.note(!batch.Decay, b.ticks)
	return batch, nil
}

// Next exists only to satisfy stream.UpdateSource; the batch drivers never
// call it.
func (b *batchShim) Next() (Update, error) {
	return Update{}, errors.New("bench: batchShim is batch-only")
}

// ---------------------------------------------------------------------------
// Pipeline configuration
// ---------------------------------------------------------------------------

// pipeConfig pins the program configuration of one document workload.
type pipeConfig struct {
	T         float64
	Nmax      int
	Epoch     int64
	Decay     float64
	Prune     float64
	Builder   bool // serve.Builder around the tracker (false: bare tracker)
	HTTP      bool // a serve.Hub for SSE
	WALDir    string
	SnapEvery uint64
}

func (c pipeConfig) engine() core.Config {
	return core.Config{T: c.T, Nmax: c.Nmax, EnableMaxExplore: true}
}

func (c pipeConfig) aggregator() stream.AggregatorConfig {
	return stream.AggregatorConfig{
		EpochLength: c.Epoch, Decay: c.Decay, DocWeight: 1, PruneBelow: c.Prune,
		DecayMode: stream.DecayRescale,
	}
}

// tracker defaults of the CLI: jaccard .5, grace 350, min-card 3.
func (c pipeConfig) tracker() story.Config {
	return story.Config{MinJaccard: 0.5, Grace: 350, MinCardinality: 3}
}

func (c pipeConfig) fingerprint() string {
	return fmt.Sprintf("bench:v1:T=%g,nmax=%d,epoch=%d,decay=%g,prune=%g", c.T, c.Nmax, c.Epoch, c.Decay, c.Prune)
}

func (c pipeConfig) persist() persist.Config {
	return persist.Config{Dir: c.WALDir, Fingerprint: c.fingerprint(), SnapshotEvery: c.SnapEvery, Fsync: false}
}

// openDocFile and newDocReaderSource open a document stream as the CLI does.
func openDocFile(path string) (DocSource, io.Closer, error) {
	f, err := stream.OpenDocFile(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f, nil
}

func newDocReaderSource(name string, r io.Reader) DocSource {
	return stream.NewDocReaderSource(name, r)
}

// ---------------------------------------------------------------------------
// Single-engine document pipeline (docs-steady, docs-decay, serve-durable)
// ---------------------------------------------------------------------------

type singlePipe struct {
	agg   *stream.Aggregator
	eng   *core.Engine
	trk   *story.Tracker
	bld   *serve.Builder
	hub   *serve.Hub
	store *persist.Store
	sink  *sinkShim
	tr    *tracer       // nil when untraced
	ticks uint64        // engine boundaries completed by finished driver runs
	live  func() uint64 // boundaries of the driver run in progress, nil between runs
	recs  int64         // lifecycle records seen by the record sink

	captureBusy int64 // ns inside the snapshot capture callback
}

// newSinglePipe builds source → [WAL] → aggregator → engine → tracker/builder
// exactly as `dyndens stories run` / `dyndens serve [-wal]` wire it. pull is
// the latency stamp taken for every document (see docShim; paced marks a live
// source the pipeline has to wait for). tr is nil for the untraced run.
func newSinglePipe(cfg pipeConfig, live DocSource, pull func(), paced bool, tr *tracer) (*singlePipe, error) {
	p := &singlePipe{tr: tr}
	var docs DocSource = &docShim{inner: live, pull: pull, pullAfter: paced, tr: tr, layer: lRead}
	var err error
	if cfg.WALDir != "" {
		if p.store, err = persist.Open(cfg.persist()); err != nil {
			return nil, err
		}
		docs = p.store.Docs(docs)
		if tr != nil {
			docs = &docShim{inner: docs, tr: tr, layer: lAppend}
		}
	}
	if p.agg, err = stream.NewAggregator(docs, cfg.aggregator()); err != nil {
		return nil, err
	}
	if p.eng, err = core.New(cfg.engine()); err != nil {
		return nil, err
	}
	if p.trk, err = story.NewTracker(cfg.tracker()); err != nil {
		return nil, err
	}
	p.sink = &sinkShim{tr: tr}
	if cfg.Builder {
		p.bld = serve.NewBuilder(p.trk)
		if cfg.HTTP {
			p.hub = serve.NewHub()
			p.bld.SetRecordSink(func(r story.Record) { p.recs++; p.hub.Publish(r) })
		} else {
			p.bld.SetRecordSink(func(story.Record) { p.recs++ })
		}
		p.sink.inner, p.sink.bound, p.sink.layer = p.bld, p.bld, lServeSink
	} else {
		p.trk.SetRecordSink(func(story.Record) { p.recs++ })
		p.sink.inner, p.sink.bound, p.sink.layer = p.trk, p.trk, lStorySink
	}
	p.eng.SetSink(p.sink)
	return p, nil
}

func (p *singlePipe) work() int64 { return engineWork(p.eng.Stats()) }

// drained reports a document boundary: every update of the documents pulled
// so far has been processed and (with a builder) published.
func (p *singlePipe) drained() bool { return p.agg.Drained() }

// visibleSeq is the boundary the serving view covers (0 without a builder).
func (p *singlePipe) visibleSeq() uint64 {
	if p.bld == nil {
		return 0
	}
	return p.bld.View().LastSeq()
}

func (p *singlePipe) capture() (*persist.PipelineState, error) {
	start := nowNs()
	if p.tr != nil {
		p.tr.begin(lCapture)
		defer p.tr.end()
	}
	if p.bld != nil {
		p.bld.Sync()
	}
	ps, err := persist.CaptureSingle(p.eng, p.agg, p.trk)
	if err == nil {
		ps.Ticks = p.ticks
		if p.live != nil {
			ps.Ticks += p.live()
		}
	}
	p.captureBusy += nowNs() - start
	return ps, err
}

// maybeSnapshot is the CLI's drained-boundary hook body for -wal runs.
func (p *singlePipe) maybeSnapshot() error {
	if p.store == nil {
		return nil
	}
	return p.store.MaybeSnapshot(p.capture)
}

// runProgramDriver drives the pipeline with the program's own replay driver,
// as the CLI does: stream.Replay.RunBatches(256, false). hook runs after
// every batch; it returns errStop to end the run.
func (p *singlePipe) runProgramDriver(hook func() error) error {
	r := stream.NewReplay(p.agg, p.eng, p.sink)
	r.SetBoundaryHook(hook)
	p.live = func() uint64 { return uint64(r.Stats().Ticks) }
	st, err := r.RunBatches(256, false)
	p.live = nil
	p.ticks += uint64(st.Ticks)
	if errors.Is(err, errStop) {
		return nil
	}
	return err
}

// runTracedLoop is the bench's own copy of Replay.RunBatches(·, false) with a
// span around every call into a layer. unit names the document the next
// batch belongs to.
func (p *singlePipe) runTracedLoop(unit func() int64, hook func() error) error {
	tr := p.tr
	for {
		tr.setUnit(unit())
		tr.begin(lDriver)
		tr.begin(lAggregate)
		b, err := p.agg.NextBatch()
		tr.end()
		if err != nil {
			tr.end()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if b.Threshold != nil {
			if err := stream.ValidateThresholdScale(b.Threshold.Scale); err != nil {
				tr.end()
				return err
			}
			tr.begin(lCoreThreshold)
			p.eng.ProcessThresholdBatch(b.Threshold.Scale, b.Updates)
			tr.end()
			p.ticks++
		} else {
			for _, u := range b.Updates {
				tr.begin(lCoreUpdate)
				p.eng.Process(u)
				tr.end()
			}
			p.ticks += uint64(len(b.Updates))
		}
		err = hook()
		tr.end()
		if err != nil {
			if errors.Is(err, errStop) {
				return nil
			}
			return err
		}
	}
}

// stories is the tracker's current table. Writer goroutine only.
func (p *singlePipe) stories() []StoryRow { return p.trk.Stories() }

// checkpoint cuts the final WAL checkpoint (a no-op without a store) and
// reports how long it took.
func (p *singlePipe) checkpoint() (time.Duration, error) {
	if p.store == nil {
		return 0, nil
	}
	start := time.Now()
	err := p.store.Checkpoint(p.capture)
	return time.Since(start), err
}

// finish closes the story layer at the final tick (resolving grace windows
// for the final table) and releases the store.
func (p *singlePipe) finish() error {
	if p.bld != nil {
		p.bld.Close(p.ticks)
	} else {
		p.trk.Close(p.ticks)
	}
	if p.store != nil {
		return p.store.Close()
	}
	return nil
}

func (p *singlePipe) counts() layerCounts {
	var c layerCounts
	c.addAggregator(p.agg.Stats())
	c.addEngine(p.eng.Stats())
	c.addTracker(p.trk, p.recs)
	c.Became, c.Ceased = p.sink.became, p.sink.ceased
	c.OutputDense = int64(p.eng.OutputDenseCount())
	c.IndexError = p.eng.ValidateIndex()
	if p.bld != nil {
		vs := p.bld.View().Stats()
		c.Publishes, c.Boundaries = int64(vs.Publishes), int64(vs.Boundaries)
	}
	if p.store != nil {
		ss := p.store.Stats()
		c.Frames, c.BytesLogged, c.SnapshotsCut = int64(ss.FramesLogged), int64(ss.BytesLogged), int64(ss.SnapshotsCut)
	}
	return c
}

// handler is the real HTTP surface over the pipeline's view.
func (p *singlePipe) handler() http.Handler {
	return serve.NewServer(p.bld.View(), p.hub).Handler()
}

// recoverStories reopens a WAL directory written under cfg and rebuilds every
// layer from it, the way a restarted `dyndens serve -wal` does; it returns
// the restored story table.
func recoverStories(cfg pipeConfig) ([]StoryRow, error) {
	st, err := persist.Open(cfg.persist())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	restored := st.Restored()
	if restored == nil {
		return nil, errors.New("bench: WAL directory holds no snapshot")
	}
	if _, err := persist.RestoreEngine(cfg.engine(), restored); err != nil {
		return nil, err
	}
	if _, err := persist.RestoreAggregator(st.Docs(emptyDocs{}), cfg.aggregator(), restored); err != nil {
		return nil, err
	}
	trk, err := persist.RestoreTracker(cfg.tracker(), restored)
	if err != nil {
		return nil, err
	}
	if n := st.Stats().ReplayedFrames; n != 0 {
		return nil, fmt.Errorf("bench: %d WAL frames past the final checkpoint", n)
	}
	return trk.Stories(), nil
}

type emptyDocs struct{}

func (emptyDocs) Next() (Document, error) { return Document{}, io.EOF }

// ---------------------------------------------------------------------------
// Sharded document pipeline (docs-steady-par)
// ---------------------------------------------------------------------------

type shardPipe struct {
	front  *stream.Pipeline
	src    *batchShim
	se     *shard.ShardedEngine
	trk    *story.Tracker
	bld    *serve.Builder
	sink   *seqShim
	ticks  uint64
	recs   int64
	closer io.Closer
}

// newShardPipe builds file → parallel aggregator (workers = k) → sharded
// engine (K = k, scoped) → builder via SetSeqSink, as
// `dyndens serve -agg-workers k -shards k` wires it. note and onSeq are the
// bench's completion tracking (see batchShim, seqShim); sinkTr traces the
// merge goroutine when non-nil.
func newShardPipe(cfg pipeConfig, path string, k int, note func(bool, uint64), onSeq func(uint64), sinkTr *tracer) (*shardPipe, error) {
	p := &shardPipe{}
	f, err := stream.OpenDocFile(path)
	if err != nil {
		return nil, err
	}
	p.closer = f
	if p.front, err = stream.NewParallelAggregator(f, cfg.aggregator(), stream.PipelineConfig{Workers: k}); err != nil {
		return nil, err
	}
	p.src = &batchShim{front: p.front, note: note}
	if p.se, err = shard.New(shard.Config{Shards: k, Engine: cfg.engine()}); err != nil {
		return nil, err
	}
	if p.trk, err = story.NewTracker(cfg.tracker()); err != nil {
		return nil, err
	}
	p.bld = serve.NewBuilder(p.trk)
	p.bld.SetRecordSink(func(story.Record) { p.recs++ })
	p.sink = &seqShim{inner: p.bld, onSeq: onSeq, tr: sinkTr}
	p.se.SetSeqSink(p.sink)
	return p, nil
}

// runProgramDriver drives the pipeline with stream.ShardReplay.RunBatches(256,
// false). It returns after the final flush: every fed tick is merged.
func (p *shardPipe) runProgramDriver(hook func() error) error {
	r := stream.NewShardReplay(p.src, p.se, nil)
	r.SetBoundaryHook(hook)
	_, err := r.RunBatches(256, false)
	p.ticks = p.src.ticks
	if errors.Is(err, errStop) {
		return nil
	}
	return err
}

// runTracedLoop is the bench's own copy of ShardReplay.RunBatches(·, false).
func (p *shardPipe) runTracedLoop(tr *tracer, unit func() int64, hook func() error) error {
	flush := func() {
		tr.begin(lShardDispatch)
		p.se.Flush()
		tr.end()
	}
	for {
		tr.setUnit(unit())
		tr.begin(lDriver)
		tr.begin(lPullWait)
		b, err := p.src.NextBatch()
		tr.end()
		if err != nil {
			flush()
			tr.end()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		tr.begin(lShardDispatch)
		if b.Threshold != nil {
			err = p.se.ProcessThresholdBatch(b.Threshold.Scale, b.Updates)
		} else {
			p.se.ProcessAll(b.Updates)
		}
		p.ticks = p.src.ticks
		tr.end()
		if err == nil {
			err = hook()
		}
		if err != nil {
			flush()
			tr.end()
			if errors.Is(err, errStop) {
				return nil
			}
			return err
		}
		tr.end()
	}
}

func (p *shardPipe) stories() []StoryRow { return p.trk.Stories() }

// finish closes the story layer at the final tick.
func (p *shardPipe) finish() {
	p.se.Flush()
	p.bld.Close(p.ticks)
}

// stop ends every goroutine of the front-end and the sharded engine and
// closes the input file.
func (p *shardPipe) stop() error {
	p.front.Close()
	err := p.se.Close()
	if cerr := p.closer.Close(); err == nil {
		err = cerr
	}
	return err
}

// counts must be called before finish (Stats flushes the live deployment).
func (p *shardPipe) counts() layerCounts {
	var c layerCounts
	ss := p.se.Stats()
	c.addEngine(ss.Aggregate)
	c.Events = int64(ss.MergedEvents)
	c.addTracker(p.trk, p.recs)
	c.Became, c.Ceased = p.sink.became, p.sink.ceased
	c.OutputDense = int64(p.se.OutputDenseCount())
	vs := p.bld.View().Stats()
	c.Publishes, c.Boundaries = int64(vs.Publishes), int64(vs.Boundaries)
	if as, ok := p.front.AggregatorStats(); ok {
		c.addAggregator(as) // only once the stream reached its end
	} else {
		c.ThresholdUnits = p.src.thresholds
		c.UpdatesOut = int64(p.src.ticks) - p.src.thresholds
	}
	is := p.front.IngestStats()
	c.IngestExpandBusy = is.ExpandBusy.Seconds()
	c.IngestProducerStall = is.ProducerStall.Seconds()
	c.IngestConsumerStall = is.ConsumerStall.Seconds()
	var busySum, busyMax float64
	for _, l := range ss.Loads {
		b := l.Busy.Seconds()
		busySum += b
		busyMax = max(busyMax, b)
	}
	c.ShardWorkerBusy = busySum
	if busySum > 0 {
		c.ShardBusySkew = busyMax / (busySum / float64(len(ss.Loads)))
	}
	c.ShardDeliveryFraction = ss.MeanDeliveryFraction()
	if tot := ss.MergedEvents + ss.DedupedEvents; tot > 0 {
		c.ShardDedupRatio = float64(ss.DedupedEvents) / float64(tot)
	}
	return c
}
