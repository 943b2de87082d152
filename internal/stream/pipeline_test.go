// Conformance suite for the pipelined ingestion front-end: the evidence that
// stage decoupling and parallel expansion change when work happens, never
// what is emitted. Every test compares the pipeline's batch stream — updates,
// Decay flags, ThresholdUpdate units, group order — value-by-value against
// the serial reference, across worker counts, document sources (in-memory
// and raw-line file), shard counts, and error positions.
package stream

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/shard"
	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// recordedBatch is one batch captured for deep comparison, with updates and
// threshold units copied out of the source's reused backing stores.
type recordedBatch struct {
	updates   []Update
	decay     bool
	threshold *ThresholdUpdate
}

// recordBatches drains bs, cloning every batch; the terminal error (io.EOF on
// clean streams) is returned alongside the batches read before it.
func recordBatches(bs BatchSource) ([]recordedBatch, error) {
	var out []recordedBatch
	for {
		b, err := bs.NextBatch()
		if err != nil {
			return out, err
		}
		rb := recordedBatch{updates: append([]Update(nil), b.Updates...), decay: b.Decay}
		if b.Threshold != nil {
			thr := *b.Threshold
			rb.threshold = &thr
		}
		out = append(out, rb)
	}
}

// requireSameBatches compares two recorded streams value-by-value (updates
// bit-exact: the pipeline runs the same float operations in the same order).
func requireSameBatches(t *testing.T, label string, got, want []recordedBatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batches, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.decay != w.decay {
			t.Fatalf("%s: batch %d decay=%v, want %v", label, i, g.decay, w.decay)
		}
		switch {
		case (g.threshold == nil) != (w.threshold == nil):
			t.Fatalf("%s: batch %d threshold presence %v, want %v", label, i, g.threshold != nil, w.threshold != nil)
		case g.threshold != nil && *g.threshold != *w.threshold:
			t.Fatalf("%s: batch %d threshold %+v, want %+v", label, i, *g.threshold, *w.threshold)
		}
		if len(g.updates) != len(w.updates) {
			t.Fatalf("%s: batch %d has %d updates, want %d", label, i, len(g.updates), len(w.updates))
		}
		for j := range w.updates {
			if g.updates[j] != w.updates[j] {
				t.Fatalf("%s: batch %d update %d = %+v, want %+v", label, i, j, g.updates[j], w.updates[j])
			}
		}
	}
}

// pipelineConfDocs is the conformance workload: randomized document sizes
// (including single-entity documents that only advance time), duplicate
// mentions, single- and multi-epoch jumps — everything that exercises epoch
// ticks, retirement, and re-keying.
func pipelineConfDocs(seed int64, n int) []Document {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]Document, 0, n)
	now := int64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.30:
			now += 10
		case r < 0.38:
			now += 10 * int64(2+rng.Intn(4))
		}
		m := 1 + rng.Intn(6)
		ents := make([]vset.Vertex, 0, m)
		for j := 0; j < m; j++ {
			ents = append(ents, vset.Vertex(rng.Intn(25)))
		}
		docs = append(docs, Document{Time: now, Entities: vset.New(ents...)})
	}
	return docs
}

// serialBatches records the reference stream of the serial aggregator.
func serialBatches(t *testing.T, docs []Document, cfg AggregatorConfig) []recordedBatch {
	t.Helper()
	ref, err := recordBatches(MustAggregator(NewSliceDocSource(docs), cfg))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("serial reference failed: %v", err)
	}
	return ref
}

// docsToFileSource writes docs in the recorded-document format and reopens
// them as a DocFileSource, exercising the raw-line path (workers parse).
func docsToFileSource(t *testing.T, docs []Document) *DocFileSource {
	t.Helper()
	var b strings.Builder
	if _, err := WriteDocuments(&b, docs); err != nil {
		t.Fatal(err)
	}
	return NewDocReaderSource("conf-docs", strings.NewReader(b.String()))
}

// TestParallelAggregatorMatchesSerial is the core conformance matrix:
// W ∈ {1, 2, 4} × {in-memory source, raw-line file source}, batch streams
// deep-equal to the serial aggregator, and the final aggregation counters
// identical.
func TestParallelAggregatorMatchesSerial(t *testing.T) {
	docs := pipelineConfDocs(11, 500)
	cfg := AggregatorConfig{EpochLength: 10, Decay: 0.5, PruneBelow: 0.05}
	ref := serialBatches(t, docs, cfg)
	refAgg := MustAggregator(NewSliceDocSource(docs), cfg)
	for {
		if _, err := refAgg.NextBatch(); err != nil {
			break
		}
	}
	refStats := refAgg.Stats()
	if refStats.ThresholdUpdates == 0 {
		t.Fatal("reference emitted no threshold units; fixture too weak")
	}
	if refStats.Retired == 0 {
		t.Fatal("workload retired no pairs; fixture too weak")
	}
	for _, workers := range []int{1, 2, 4} {
		for _, src := range []string{"slice", "file"} {
			label := fmt.Sprintf("W=%d src=%s", workers, src)
			var ds DocumentSource = NewSliceDocSource(docs)
			if src == "file" {
				ds = docsToFileSource(t, docs)
			}
			p, err := NewParallelAggregator(ds, cfg, PipelineConfig{Workers: workers, Depth: 4})
			if err != nil {
				t.Fatal(err)
			}
			got, gerr := recordBatches(p)
			if !errors.Is(gerr, io.EOF) {
				t.Fatalf("%s: pipeline failed: %v", label, gerr)
			}
			requireSameBatches(t, label, got, ref)
			if st, ok := p.AggregatorStats(); !ok || st != refStats {
				t.Fatalf("%s: aggregator stats = %+v (ok=%v), want %+v", label, st, ok, refStats)
			}
			is := p.IngestStats()
			if is.Batches != len(ref) {
				t.Fatalf("%s: ingest stats counted %d batches, want %d", label, is.Batches, len(ref))
			}
			p.Close()
		}
	}
}

// TestParallelAggregatorRenormConformance pins the rarest epoch path: a decay
// factor small enough that λ crosses the fold floor folds it mid-stream, and
// the pipeline must carry the folding units' unsplit scales exactly.
func TestParallelAggregatorRenormConformance(t *testing.T) {
	var docs []Document
	for i := 0; i < 40; i++ {
		docs = append(docs, Document{Time: int64(i * 10), Entities: vset.New(vset.Vertex(i%6), vset.Vertex(i%6+1), vset.Vertex(i%6+2))})
	}
	cfg := AggregatorConfig{EpochLength: 10, Decay: 1e-40, PruneBelow: -1}
	ref := serialBatches(t, docs, cfg)
	refAgg := MustAggregator(NewSliceDocSource(docs), cfg)
	for {
		if _, err := refAgg.NextBatch(); err != nil {
			break
		}
	}
	if refAgg.Stats().Renorms == 0 {
		t.Fatal("fixture never folded; weaken Decay further")
	}
	p, err := NewParallelAggregator(NewSliceDocSource(docs), cfg, PipelineConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, gerr := recordBatches(p)
	if !errors.Is(gerr, io.EOF) {
		t.Fatalf("pipeline failed: %v", gerr)
	}
	requireSameBatches(t, "renorm", got, ref)
}

// TestPipelineNextMatchesSerial pins the per-update view (UpdateSource): with
// fading off, the cursor over the pipelined batch stream must yield the
// serial aggregator's batches flattened; with fading on, it must stop at the
// first threshold unit with ErrNeedBatch.
func TestPipelineNextMatchesSerial(t *testing.T) {
	docs := pipelineConfDocs(17, 300)
	cfg := AggregatorConfig{EpochLength: 10, Decay: 1}
	var ref []Update
	for _, b := range serialBatches(t, docs, cfg) {
		ref = append(ref, b.updates...)
	}
	p, perr := NewParallelAggregator(NewSliceDocSource(docs), cfg, PipelineConfig{Workers: 2})
	if perr != nil {
		t.Fatal(perr)
	}
	got, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("pipeline yielded %d updates, serial %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("update %d = %+v, want %+v", i, got[i], ref[i])
		}
	}

	// Fading streams are batch-structured through the pipeline too.
	rp, perr := NewParallelAggregator(NewSliceDocSource(docs), AggregatorConfig{EpochLength: 10, Decay: 0.5}, PipelineConfig{Workers: 2})
	if perr != nil {
		t.Fatal(perr)
	}
	defer rp.Close()
	for i := 0; i < 100000; i++ {
		if _, err := rp.Next(); err != nil {
			if !errors.Is(err, ErrNeedBatch) {
				t.Fatalf("fading per-update error = %v, want ErrNeedBatch", err)
			}
			return
		}
	}
	t.Fatal("fading per-update drive never hit a threshold unit")
}

// TestPipelineReplayConformance drives the full documents→stories pipeline —
// engine, tracker, lifecycle records — with the parallel front-end against
// the serial front-end, single-engine (K=0) and sharded (K=4). Records carry
// no floats, so requireSameRecords is exact.
func TestPipelineReplayConformance(t *testing.T) {
	docs := conformanceDocs(t, 7)
	engCfg := core.Config{T: 6.5, Nmax: 4}
	trkCfg := story.Config{MinCardinality: 3, Grace: 40}
	aggCfg := AggregatorConfig{EpochLength: 25, Decay: 0.7}

	refEng := core.MustNew(engCfg)
	refTrk := newLoggedTracker(trkCfg)
	refStats, err := NewReplay(MustAggregator(NewSliceDocSource(docs), aggCfg), refEng, refTrk).RunBatches(0, true)
	if err != nil {
		t.Fatal(err)
	}
	refTrk.Close(uint64(refStats.Ticks))
	if refTrk.Stats().Born == 0 {
		t.Fatal("reference bore no stories; fixture too weak")
	}

	// K=0: single engine behind the parallel front-end.
	p, perr := NewParallelAggregator(docsToFileSource(t, docs), aggCfg, PipelineConfig{Workers: 4, Depth: 4})
	if perr != nil {
		t.Fatal(perr)
	}
	eng := core.MustNew(engCfg)
	trk := newLoggedTracker(trkCfg)
	st, err := NewReplay(p, eng, trk).RunBatches(0, true)
	if err != nil {
		t.Fatal(err)
	}
	trk.Close(uint64(st.Ticks))
	if st.Ticks != refStats.Ticks || st.Updates != refStats.Updates || st.Events != refStats.Events {
		t.Fatalf("K=0: stats (ticks=%d upd=%d ev=%d), want (%d, %d, %d)",
			st.Ticks, st.Updates, st.Events, refStats.Ticks, refStats.Updates, refStats.Events)
	}
	if st.Ingest == nil || st.Ingest.Batches == 0 {
		t.Fatalf("K=0: replay stats carry no ingest accounting: %+v", st.Ingest)
	}
	requireSameRecords(t, "K=0", trk, refTrk)

	// K=4: sharded engine behind the parallel front-end.
	sp, perr := NewParallelAggregator(NewSliceDocSource(docs), aggCfg, PipelineConfig{Workers: 2})
	if perr != nil {
		t.Fatal(perr)
	}
	se := shard.MustNew(shard.Config{Shards: 4, Engine: engCfg})
	defer se.Close()
	strk := newLoggedTracker(trkCfg)
	se.SetSeqSink(strk)
	sst, err := NewShardReplay(sp, se, nil).RunBatches(0, true)
	if err != nil {
		t.Fatal(err)
	}
	strk.Close(uint64(sst.Ticks))
	if sst.Ticks != refStats.Ticks {
		t.Fatalf("K=4: %d ticks, want %d", sst.Ticks, refStats.Ticks)
	}
	if sst.Ingest == nil || sst.Ingest.Batches == 0 {
		t.Fatalf("K=4: shard replay stats carry no ingest accounting: %+v", sst.Ingest)
	}
	requireSameRecords(t, "K=4", strk, refTrk)
}

// TestPipelineErrorConformance pins error positioning: a mid-stream parse
// error (raw-line path) or time regression surfaces through the pipeline at
// the same batch boundary, with the same message, as through the serial
// front-end — every batch before it delivered, nothing after.
func TestPipelineErrorConformance(t *testing.T) {
	good := pipelineConfDocs(23, 60)
	var b strings.Builder
	if _, err := WriteDocuments(&b, good); err != nil {
		t.Fatal(err)
	}
	b.WriteString("100000 7 junk 9\n") // parse error past the good prefix
	input := b.String()
	cfg := AggregatorConfig{EpochLength: 10, Decay: 0.5}

	ref, refErr := recordBatches(MustAggregator(NewDocReaderSource("bad-docs", strings.NewReader(input)), cfg))
	if refErr == nil || errors.Is(refErr, io.EOF) {
		t.Fatalf("serial reference error = %v, want parse failure", refErr)
	}
	p, err := NewParallelAggregator(NewDocReaderSource("bad-docs", strings.NewReader(input)), cfg, PipelineConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := recordBatches(p)
	if gotErr == nil || gotErr.Error() != refErr.Error() {
		t.Fatalf("pipeline error = %v, want %v", gotErr, refErr)
	}
	requireSameBatches(t, "parse-error prefix", got, ref)

	// Time regression: caught by the sequencer's ordered core, same position.
	back := append(append([]Document(nil), good[:20]...), Document{Time: good[19].Time - 1, Entities: vset.New(1, 2)})
	ref, refErr = recordBatches(MustAggregator(NewSliceDocSource(back), cfg))
	if refErr == nil || errors.Is(refErr, io.EOF) {
		t.Fatalf("serial regression error = %v, want failure", refErr)
	}
	p, err = NewParallelAggregator(NewSliceDocSource(back), cfg, PipelineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr = recordBatches(p)
	if gotErr == nil || gotErr.Error() != refErr.Error() {
		t.Fatalf("pipeline regression error = %v, want %v", gotErr, refErr)
	}
	requireSameBatches(t, "regression prefix", got, ref)
}

// TestPipelineClose pins shutdown: closing mid-stream terminates the consumer
// in bounded time and a full drain self-terminates, double-Close included.
func TestPipelineClose(t *testing.T) {
	docs := pipelineConfDocs(29, 2000)
	p, err := NewParallelAggregator(NewSliceDocSource(docs), AggregatorConfig{EpochLength: 10, Decay: 0.5}, PipelineConfig{Workers: 2, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NextBatch(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	for i := 0; ; i++ {
		if _, err := p.NextBatch(); err != nil {
			break
		}
		if i > 100000 {
			t.Fatal("NextBatch never terminated after Close")
		}
	}
}

// TestPipelineHandoffZeroAlloc pins the consumer side of the handoff: once
// the producer has run ahead (queue deep enough to hold the whole stream, so
// the front-end goroutines finish and exit), pulling batches allocates
// nothing — the engine-side hot path pays no per-batch garbage for having a
// pipeline in front of it.
func TestPipelineHandoffZeroAlloc(t *testing.T) {
	docs := pipelineConfDocs(31, 200)
	cfg := AggregatorConfig{EpochLength: 10, Decay: 0.5}
	total := len(serialBatches(t, docs, cfg))
	p, err := NewParallelAggregator(NewSliceDocSource(docs), cfg, PipelineConfig{Workers: 2, Depth: total + 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NextBatch(); err != nil {
		t.Fatal(err)
	}
	// Wait until every remaining batch plus the terminal item is queued: the
	// producer goroutines have then exited and cannot contribute allocations.
	want := total - 1 + 1
	for deadline := time.Now().Add(10 * time.Second); len(p.out) < want; {
		if time.Now().After(deadline) {
			t.Fatalf("producer queued %d items, want %d", len(p.out), want)
		}
		runtime.Gosched()
	}
	pulls := total - 2 // leave the terminal item unread: measure pure handoff
	if allocs := testing.AllocsPerRun(pulls-1, func() {
		if _, err := p.NextBatch(); err != nil {
			t.Fatalf("NextBatch during alloc pin: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("pipelined NextBatch allocated %.2f allocs/op, want 0", allocs)
	}
}

// FuzzParallelAggregatorMatchesSerial derives a document stream from fuzz
// bytes (entity pairs + time deltas) and checks batch-stream equality between
// the serial aggregator and a 3-worker pipeline.
func FuzzParallelAggregatorMatchesSerial(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 1, 9, 200, 33, 7})
	f.Add([]byte(strings.Repeat("\x05\x09", 60)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var docs []Document
		now := int64(0)
		for i := 0; i+1 < len(data) && len(docs) < 300; i += 2 {
			now += int64(data[i] >> 4) // 0–15 time units per step
			ents := []vset.Vertex{vset.Vertex(data[i] % 16), vset.Vertex(data[i+1] % 16), vset.Vertex((data[i] + data[i+1]) % 16)}
			docs = append(docs, Document{Time: now, Entities: vset.New(ents...)})
		}
		if len(docs) == 0 {
			return
		}
		cfg := AggregatorConfig{EpochLength: 8, Decay: 0.5, PruneBelow: 0.05}
		ref, refErr := recordBatches(MustAggregator(NewSliceDocSource(docs), cfg))
		if !errors.Is(refErr, io.EOF) {
			t.Fatalf("serial reference failed: %v", refErr)
		}
		p, err := NewParallelAggregator(NewSliceDocSource(docs), cfg, PipelineConfig{Workers: 3, Depth: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := recordBatches(p)
		if !errors.Is(gotErr, io.EOF) {
			t.Fatalf("pipeline failed: %v", gotErr)
		}
		requireSameBatches(t, "fuzz", got, ref)
	})
}
