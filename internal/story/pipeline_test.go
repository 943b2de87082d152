package story

import (
	"fmt"
	"reflect"
	"testing"

	"dyndens/internal/baseline/fade"
	"dyndens/internal/core"
	"dyndens/internal/shard"
	"dyndens/internal/stream"
)

// pipelineWorkload is the reference documents→stories workload: three
// 4-entity stories planted over Zipf background chatter, with staggered
// activity windows so the stream exercises birth, fading blips at epoch
// ticks, and death. The engine/tracker parameters put the planted
// co-occurrence weights inside the band where story subgraphs are
// output-dense but never so heavy that free-rider supersets appear. The
// update stream is the paper-literal fading sweep, one negative delta per
// tracked pair each epoch.
type pipelineWorkload struct {
	doc  stream.DocSynthConfig
	fade fade.Config
	eng  core.Config
	trk  Config
}

func defaultWorkload() pipelineWorkload {
	return pipelineWorkload{
		doc: stream.DocSynthConfig{
			BackgroundEntities: 30,
			Stories:            3,
			StorySize:          4,
			Docs:               600,
			Seed:               7,
			StoryFraction:      0.75,
			BackgroundSkew:     1.1,
			NoiseMentionProb:   -1,
		},
		fade: fade.Config{EpochLength: 25, Decay: 0.7, DocWeight: 1, PruneBelow: 1e-3},
		eng:  core.Config{T: 6.5, Nmax: 4},
		trk:  Config{MinCardinality: 3, Grace: 350},
	}
}

// updates materialises the workload's faded update stream.
func (w pipelineWorkload) updates(t *testing.T) ([]stream.Update, []stream.PlantedStory) {
	t.Helper()
	gen := stream.MustDocSynthetic(w.doc)
	docs, err := stream.DrainDocs(gen)
	if err != nil {
		t.Fatal(err)
	}
	return fade.Sweep(docs, w.fade).Updates, gen.PlantedStories()
}

// runSingle drives the updates through a single engine with the tracker
// installed as its sink (events and update boundaries arrive automatically).
// It returns the tracker and the records it streamed.
func (w pipelineWorkload) runSingle(t *testing.T, updates []stream.Update) (*Tracker, []Record) {
	t.Helper()
	eng := core.MustNew(w.eng)
	tr, log := loggedTracker(w.trk)
	eng.SetSink(tr)
	for _, u := range updates {
		eng.Process(u)
	}
	tr.Close(uint64(len(updates)))
	return tr, log.recs
}

// runSharded drives the updates through a K-shard deployment with the
// tracker consuming the merged, sequence-numbered event stream.
func (w pipelineWorkload) runSharded(t *testing.T, updates []stream.Update, shards int) (*Tracker, []Record) {
	t.Helper()
	se := shard.MustNew(shard.Config{Shards: shards, Engine: w.eng, BatchSize: 64})
	defer se.Close()
	tr, log := loggedTracker(w.trk)
	se.SetSeqSink(tr)
	se.ProcessAll(updates)
	se.Flush()
	tr.Close(uint64(len(updates)))
	return tr, log.recs
}

// TestStoryPipelineRecoversPlantedStories is the end-to-end acceptance
// property: the documents→aggregator→engine→tracker pipeline recovers each
// planted story as exactly one tracked story — one stable ID for its whole
// lifetime, entity set reaching exactly the planted set — and stories whose
// activity window ends die, while the still-active one survives.
func TestStoryPipelineRecoversPlantedStories(t *testing.T) {
	w := defaultWorkload()
	updates, planted := w.updates(t)
	tr, recs := w.runSingle(t, updates)

	for s, p := range planted {
		// Every record whose entity set overlaps this planted story's
		// dedicated entity range (entity ranges are disjoint and noise
		// mentions are off, so overlap is unambiguous).
		var ids []ID
		seen := map[ID]bool{}
		reachedFull := false
		for _, r := range recs {
			if inter, _ := overlap(r.Entities, p.Entities); inter == 0 {
				continue
			}
			if !seen[r.Story] {
				seen[r.Story] = true
				ids = append(ids, r.Story)
			}
			if r.Entities.Equal(p.Entities) {
				reachedFull = true
			}
		}
		if len(ids) != 1 {
			t.Fatalf("planted story %d (%v) tracked under %d IDs %v, want one stable identity",
				s, p.Entities, len(ids), ids)
		}
		if !reachedFull {
			t.Fatalf("planted story %d: no record reached the full entity set %v", s, p.Entities)
		}

		died := false
		for _, r := range recs {
			if r.Story == ids[0] && r.Kind == Died {
				died = true
			}
		}
		endsEarly := p.End < w.doc.Docs // window closes before the stream does
		if endsEarly && !died {
			t.Errorf("planted story %d ended at doc %d but never died", s, p.End)
		}
		if !endsEarly {
			alive := false
			for _, snap := range tr.Stories() {
				if snap.ID == ids[0] {
					if !snap.Entities.Equal(p.Entities) {
						t.Errorf("surviving planted story %d entities = %v, want %v", s, snap.Entities, p.Entities)
					}
					alive = true
				}
			}
			if !alive {
				t.Errorf("planted story %d is still active but missing from the final table", s)
			}
		}
	}

	// The workload must exercise the full lifecycle vocabulary.
	st := tr.Stats()
	if st.Born == 0 || st.Updated == 0 || st.Died == 0 || st.Merged == 0 || st.Split == 0 {
		t.Fatalf("lifecycle coverage too weak: %+v", st)
	}
}

// TestStoryPipelineDeterministic replays the identical workload twice and
// requires byte-identical lifecycle output — stable story IDs included.
func TestStoryPipelineDeterministic(t *testing.T) {
	w := defaultWorkload()
	updates, _ := w.updates(t)
	a, aRecs := w.runSingle(t, updates)
	b, bRecs := w.runSingle(t, updates)
	if !reflect.DeepEqual(aRecs, bRecs) {
		t.Fatal("two identical runs produced different records")
	}
	if !reflect.DeepEqual(a.Stories(), b.Stories()) {
		t.Fatal("two identical runs produced different story tables")
	}
}

// TestStoryPipelineShardedConformance is the tentpole invariant: the tracker
// fed by the K-shard merged stream produces records and a story table
// identical to the single-engine run, for K ∈ {1, 2, 4}.
func TestStoryPipelineShardedConformance(t *testing.T) {
	w := defaultWorkload()
	updates, _ := w.updates(t)
	ref, refRecs := w.runSingle(t, updates)
	if len(refRecs) == 0 {
		t.Fatal("reference run produced no records; workload too weak")
	}
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			got, gotRecs := w.runSharded(t, updates, k)
			if !reflect.DeepEqual(gotRecs, refRecs) {
				t.Fatalf("K=%d records diverge from single engine (%d vs %d records): %s",
					k, len(gotRecs), len(refRecs), firstDiff(gotRecs, refRecs))
			}
			if got.Stats() != ref.Stats() {
				t.Fatalf("K=%d Stats %+v != single %+v", k, got.Stats(), ref.Stats())
			}
			if !reflect.DeepEqual(got.Stories(), ref.Stories()) {
				t.Fatalf("K=%d story tables diverge:\nsharded %+v\nsingle  %+v", k, got.Stories(), ref.Stories())
			}
			if got.Seq() != ref.Seq() {
				t.Fatalf("K=%d final seq %d != single %d", k, got.Seq(), ref.Seq())
			}
		})
	}
}

// firstDiff locates the first differing record for failure messages.
func firstDiff(a, b []Record) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("index %d: %v vs %v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length mismatch %d vs %d", len(a), len(b))
}

// TestTrackerLiveKeysMatchEngine pins the result-set contract from the
// tracker's side: with no cardinality gate, the subgraphs the tracker
// attributes to stories are exactly the engine's output-dense set after
// every update.
func TestTrackerLiveKeysMatchEngine(t *testing.T) {
	updates := stream.MustSynthetic(stream.SynthConfig{
		Vertices:         12,
		Updates:          400,
		Seed:             19,
		NegativeFraction: 0.35,
		MeanDelta:        1.5,
	})
	eng := core.MustNew(core.Config{T: 2, Nmax: 4})
	tr := MustTracker(Config{Grace: 5})
	eng.SetSink(tr)
	checked := 0
	for i, u := range updates {
		eng.Process(u)
		got := tr.LiveKeys()
		want := eng.OutputDenseKeys()
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after update %d: tracker live keys %v != engine %v", i+1, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("stream never produced a non-empty result set")
	}
}
