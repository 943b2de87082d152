package shard_test

import (
	"math"
	"reflect"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/serve"
	"dyndens/internal/shard"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// run is one documents → stories pipeline: the lifecycle records its builder
// streamed, the final story table and published view, and the counts that
// show what the stream exercised.
type run struct {
	records []story.Record
	stories []story.Snapshot
	view    *serve.Snapshot
	events  uint64
	agg     stream.AggregatorStats
}

type pipeCase struct {
	name string
	docs func(t *testing.T) stream.DocumentSource
	agg  stream.AggregatorConfig
	eng  core.Config
}

// newBuilder is the serving builder around a tracker with the CLI's
// defaults, its records logged into r.
func newBuilder(r *run) (*serve.Builder, *story.Tracker) {
	tr := story.MustTracker(story.Config{MinJaccard: 0.5, Grace: 350, MinCardinality: 3})
	b := serve.NewBuilder(tr)
	b.SetRecordSink(func(rec story.Record) { r.records = append(r.records, rec) })
	return b, tr
}

// single drives the program's own pipeline: aggregator → engine → builder
// installed with SetSink, one Process call per update.
func (c pipeCase) single(t *testing.T) run {
	var r run
	agg, err := stream.NewAggregator(c.docs(t), c.agg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(c.eng)
	if err != nil {
		t.Fatal(err)
	}
	b, tr := newBuilder(&r)
	st, err := stream.NewReplay(agg, eng, b).RunBatches(0, false)
	if err != nil {
		t.Fatal(err)
	}
	b.Close(uint64(st.Ticks))
	r.stories, r.view, r.events, r.agg = tr.Stories(), b.View().Snapshot(), eng.Stats().Events, agg.Stats()
	return r
}

// stubs drives the names bench/par.go calls, wired as it wires them: the
// parallel aggregator, shard.New, NewShardReplay and the builder installed
// with SetSeqSink.
func (c pipeCase) stubs(t *testing.T) run {
	var r run
	front, err := stream.NewParallelAggregator(c.docs(t), c.agg, stream.PipelineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	se, err := shard.New(shard.Config{Shards: 2, Engine: c.eng})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	b, tr := newBuilder(&r)
	se.SetSeqSink(b)
	st, err := stream.NewShardReplay(front, se, nil).RunBatches(256, false)
	if err != nil {
		t.Fatal(err)
	}
	se.Flush()
	b.Close(uint64(st.Ticks))
	agg, ok := front.AggregatorStats()
	if !ok {
		t.Fatal("no aggregator counters at the end of the stream")
	}
	r.stories, r.view, r.events, r.agg = tr.Stories(), b.View().Snapshot(), se.Stats().MergedEvents, agg
	return r
}

// TestStubsMatchSinglePipeline is the conformance test of the names kept only
// for bench/par.go (ROADMAP item 7): on a recorded document file and on a
// fast-decay stream whose epochs of 2 documents retire pairs, send threshold
// units and fold, they produce the single pipeline's lifecycle records, story
// table and published view, and deliver every event the engine emitted.
func TestStubsMatchSinglePipeline(t *testing.T) {
	cases := []pipeCase{
		{
			name: "docs_small",
			docs: func(t *testing.T) stream.DocumentSource {
				f, err := stream.OpenDocFile("../../cmd/dyndens/testdata/docs_small.docs")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { f.Close() })
				return f
			},
			agg: stream.AggregatorConfig{EpochLength: 25, Decay: 0.7, DocWeight: 1, PruneBelow: 1e-3},
			eng: core.Config{T: 6.5, Nmax: 4},
		},
		{
			name: "fast-decay",
			docs: func(*testing.T) stream.DocumentSource {
				return stream.MustDocSynthetic(stream.DocSynthConfig{BackgroundEntities: 30, Stories: 3, StorySize: 4, Docs: 4000, Seed: 5})
			},
			agg: stream.AggregatorConfig{EpochLength: 2, Decay: 0.5, DocWeight: 1, PruneBelow: 1e-3},
			eng: core.Config{T: 1.5, Nmax: 4},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, got := c.single(t), c.stubs(t)
			if len(want.records) == 0 || want.agg.ThresholdUpdates == 0 {
				t.Fatalf("fixture too weak: %d records, %d threshold units", len(want.records), want.agg.ThresholdUpdates)
			}
			if c.name == "fast-decay" && (want.agg.Retired == 0 || want.agg.Renorms == 0) {
				t.Fatalf("fixture too weak: %d retirements, %d folds", want.agg.Retired, want.agg.Renorms)
			}
			if !reflect.DeepEqual(got.records, want.records) {
				t.Fatalf("%d records, the single pipeline %d, or they differ", len(got.records), len(want.records))
			}
			if !reflect.DeepEqual(got.stories, want.stories) {
				t.Fatal("final story tables differ")
			}
			if !reflect.DeepEqual(got.view, want.view) {
				t.Fatalf("final views differ: epoch %d, %d stories; want epoch %d, %d stories",
					got.view.Epoch, len(got.view.Stories), want.view.Epoch, len(want.view.Stories))
			}
			if got.events != want.events || got.agg != want.agg {
				t.Fatalf("%d events and %+v, want %d and %+v", got.events, got.agg, want.events, want.agg)
			}
		})
	}
}

// TestThresholdBatchRejectsBadScale pins that a scale outside (0, 1] comes
// back as an error before the engine sees it, which would panic on it.
func TestThresholdBatchRejectsBadScale(t *testing.T) {
	se, err := shard.New(shard.Config{Engine: core.Config{T: 2, Nmax: 4}})
	if err != nil {
		t.Fatal(err)
	}
	se.ProcessAll([]core.Update{{A: 1, B: 2, Delta: 5}, {A: 2, B: 3, Delta: 5}})
	if err := se.ProcessThresholdBatch(0.5, nil); err != nil {
		t.Fatalf("scale 0.5: %v", err)
	}
	before := se.Stats()
	for _, scale := range []float64{0, math.NaN(), 1.5} {
		if err := se.ProcessThresholdBatch(scale, []core.Update{{A: 1, B: 2, Delta: -1}}); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
		if after := se.Stats(); !reflect.DeepEqual(after, before) {
			t.Errorf("scale %v changed the counters: %+v → %+v", scale, before, after)
		}
	}
}
