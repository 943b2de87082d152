// Conformance suite for the names NewParallelAggregator and NewShardReplay,
// which bench/par.go calls and which now run the sequential Aggregator and
// the ordinary Replay: every test compares their batch stream — updates,
// Decay flags, ThresholdUpdate units, group order — value-by-value against
// the serial aggregator, across Workers values, document sources (in-memory
// and raw-line file), and error positions.
package stream

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/shard"
	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// serialBatches records the reference stream of the serial aggregator.
func serialBatches(t *testing.T, docs []Document, cfg AggregatorConfig) []recordedBatch {
	t.Helper()
	ref, err := recordBatches(mustAggregator(NewSliceDocSource(docs), cfg))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("serial reference failed: %v", err)
	}
	return ref
}

// docsToFileSource writes docs in the recorded-document format and reopens
// them as a DocFileSource, exercising the raw-line path.
func docsToFileSource(t *testing.T, docs []Document) *DocFileSource {
	t.Helper()
	var b strings.Builder
	if _, err := WriteDocuments(&b, docs); err != nil {
		t.Fatal(err)
	}
	return NewDocReaderSource("conf-docs", strings.NewReader(b.String()))
}

// mustShard is shard.New for configurations the test knows to be valid.
func mustShard(t testing.TB, cfg shard.Config) *shard.ShardedEngine {
	t.Helper()
	se, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// TestParallelAggregatorMatchesSerial is the conformance matrix:
// W ∈ {1, 2, 4} × {in-memory source, raw-line file source}, batch streams
// deep-equal to the serial aggregator, and the final aggregation counters
// identical.
func TestParallelAggregatorMatchesSerial(t *testing.T) {
	docs := pipelineConfDocs(11, 500)
	cfg := AggregatorConfig{EpochLength: 10, Decay: 0.5, PruneBelow: 0.05}
	ref := serialBatches(t, docs, cfg)
	refAgg := mustAggregator(NewSliceDocSource(docs), cfg)
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
			p, err := NewParallelAggregator(ds, cfg, PipelineConfig{Workers: workers})
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
			if is := p.IngestStats(); is != (IngestStats{}) {
				t.Fatalf("%s: ingest stats %+v, want zeros: nothing runs beside the caller", label, is)
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
	refAgg := mustAggregator(NewSliceDocSource(docs), cfg)
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

// TestPipelineReplayConformance drives the full documents→stories pipeline —
// engine, tracker, lifecycle records — through NewParallelAggregator against
// the serial front-end, with a plain engine (K=0) and behind shard.New and
// NewShardReplay with the tracker as SeqSink (K=4). Records carry no floats,
// so requireSameRecords is exact.
func TestPipelineReplayConformance(t *testing.T) {
	docs := conformanceDocs(t, 7)
	engCfg := core.Config{T: 6.5, Nmax: 4}
	trkCfg := story.Config{MinCardinality: 3, Grace: 40}
	aggCfg := AggregatorConfig{EpochLength: 25, Decay: 0.7}

	refEng := core.MustNew(engCfg)
	refTrk := newLoggedTracker(trkCfg)
	refStats, err := NewReplay(mustAggregator(NewSliceDocSource(docs), aggCfg), refEng, refTrk).RunBatches(0, true)
	if err != nil {
		t.Fatal(err)
	}
	refTrk.Close(uint64(refStats.Ticks))
	if refTrk.Stats().Born == 0 {
		t.Fatal("reference bore no stories; fixture too weak")
	}

	// K=0: a plain engine behind NewParallelAggregator.
	p, perr := NewParallelAggregator(docsToFileSource(t, docs), aggCfg, PipelineConfig{Workers: 4})
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
	requireSameRecords(t, "K=0", trk, refTrk)

	// K=4: shard.New behind NewParallelAggregator, driven by NewShardReplay.
	sp, perr := NewParallelAggregator(NewSliceDocSource(docs), aggCfg, PipelineConfig{Workers: 2})
	if perr != nil {
		t.Fatal(perr)
	}
	se := mustShard(t, shard.Config{Shards: 4, Engine: engCfg})
	defer se.Close()
	strk := newLoggedTracker(trkCfg)
	se.SetSeqSink(strk)
	sst, err := NewShardReplay(sp, se, nil).RunBatches(0, true)
	if err != nil {
		t.Fatal(err)
	}
	strk.Close(uint64(sst.Ticks))
	if sst.Ticks != refStats.Ticks || sst.Events != refStats.Events {
		t.Fatalf("K=4: %d ticks and %d events, want %d and %d", sst.Ticks, sst.Events, refStats.Ticks, refStats.Events)
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

	ref, refErr := recordBatches(mustAggregator(NewDocReaderSource("bad-docs", strings.NewReader(input)), cfg))
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

	// Time regression: same position, same message.
	back := append(append([]Document(nil), good[:20]...), Document{Time: good[19].Time - 1, Entities: vset.New(1, 2)})
	ref, refErr = recordBatches(mustAggregator(NewSliceDocSource(back), cfg))
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

// TestPipelineClose pins shutdown: Close mid-stream returns nil, twice, and a
// later drain still terminates.
func TestPipelineClose(t *testing.T) {
	docs := pipelineConfDocs(29, 2000)
	p, err := NewParallelAggregator(NewSliceDocSource(docs), AggregatorConfig{EpochLength: 10, Decay: 0.5}, PipelineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if _, err := p.NextBatch(); err != nil {
			break
		}
		if i > 100000 {
			t.Fatal("NextBatch never terminated after Close")
		}
	}
}

// FuzzParallelAggregatorMatchesSerial derives a document stream from fuzz
// bytes (entity pairs + time deltas) and checks batch-stream equality between
// the serial aggregator and NewParallelAggregator with 3 workers.
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
		ref, refErr := recordBatches(mustAggregator(NewSliceDocSource(docs), cfg))
		if !errors.Is(refErr, io.EOF) {
			t.Fatalf("serial reference failed: %v", refErr)
		}
		p, err := NewParallelAggregator(NewSliceDocSource(docs), cfg, PipelineConfig{Workers: 3})
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
