package serve

import (
	"net/http"
	"strconv"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// updateLog records a run's events grouped by the update that produced them.
// It retains the sets, so the engine hands it private copies.
type updateLog struct {
	cur     []core.Event
	updates [][]core.Event
	events  int
}

func (l *updateLog) Emit(ev core.Event) { l.cur = append(l.cur, ev) }

func (l *updateLog) EndUpdate() {
	l.updates = append(l.updates, l.cur)
	l.events += len(l.cur)
	l.cur = nil
}

// plantedSteady returns the tracker configuration and the engine's event log
// of BenchmarkSinkPlantedSteady's workload (see there).
func plantedSteady(tb testing.TB) (story.Config, *updateLog) {
	tb.Helper()
	w := defaultWorkload()
	w.doc.Docs = 12000
	updates := w.updates(tb)
	eng := core.MustNew(w.eng)
	log := new(updateLog)
	eng.SetSink(log)
	for _, u := range updates {
		eng.Process(u)
	}
	return w.trk, log
}

// BenchmarkSinkPlantedSteady measures the sink alone — story.Tracker under
// serve.Builder, from Emit to the published snapshot — on the event stream of
// a planted document workload: the conformance tests' three staggered
// four-entity stories over background chatter, twenty times as long, so that
// stories are born, blip at every decay tick, merge, split and die
// throughout. The stream runs through the paper-literal fading sweep and the
// engine once, untimed; an op is one engine update replayed into the
// builder: its events (pairs below MinCardinality included, as the engine
// emits them) and its boundary, most of which carry nothing. The log is
// replayed into a fresh builder each time it runs out.
func BenchmarkSinkPlantedSteady(b *testing.B) {
	trk, log := plantedSteady(b)
	bld := NewBuilder(story.MustTracker(trk))
	for _, evs := range log.updates {
		for _, ev := range evs {
			bld.Emit(ev)
		}
		bld.EndUpdate()
	}
	st, vs := bld.tracker.Stats(), bld.View().Stats()
	if st.Born < 3 || st.Updated == 0 || st.Merged == 0 || st.Died == 0 || log.events < 10000 {
		b.Fatalf("workload too tame: %d events, %+v", log.events, st)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % len(log.updates)
		if i == 0 {
			b.StopTimer()
			bld = NewBuilder(story.MustTracker(trk))
			b.StartTimer()
		}
		for _, ev := range log.updates[i] {
			bld.Emit(ev)
		}
		bld.EndUpdate()
	}
	b.StopTimer()
	perUpdate := 1 / float64(len(log.updates))
	b.ReportMetric(float64(log.events)*perUpdate, "events/op")
	b.ReportMetric(float64(vs.Records)*perUpdate, "records/op")
	b.ReportMetric(float64(vs.Publishes)*perUpdate, "publishes/op")
}

// BenchmarkServeRead measures the three read handlers, called directly with a
// body-discarding ResponseWriter, on the busiest table of the planted
// workload (the snapshot with the most live subgraphs): top is k=10, story the
// story with the most subgraphs, entity the entity in the most stories.
func BenchmarkServeRead(b *testing.B) {
	trk, log := plantedSteady(b)
	bld := NewBuilder(story.MustTracker(trk))
	snap := bld.View().Snapshot()
	for _, evs := range log.updates {
		for _, ev := range evs {
			bld.Emit(ev)
		}
		bld.EndUpdate()
		if cur := bld.View().Snapshot(); cur.LiveSubgraphs > snap.LiveSubgraphs {
			snap = cur
		}
	}
	view := NewView()
	view.publish(snap)
	s := NewServer(view, nil)
	wide := snap.Stories[0]
	for _, e := range snap.Stories {
		if len(e.Subgraphs) > len(wide.Subgraphs) {
			wide = e
		}
	}
	stories := map[vset.Vertex]int{}
	var popular vset.Vertex
	for _, e := range snap.Stories {
		for _, v := range e.Entities {
			stories[v]++
		}
	}
	for v, n := range stories {
		if m := stories[popular]; n > m || n == m && v < popular {
			popular = v
		}
	}
	id, ent := strconv.FormatUint(uint64(wide.ID), 10), strconv.Itoa(int(popular))
	for _, c := range []struct {
		name string
		h    http.HandlerFunc
		r    *http.Request
	}{
		{"top", s.handleTop, readRequest("/stories/top?k=10", "", "")},
		{"story", s.handleStory, readRequest("/stories/"+id, "id", id)},
		{"entity", s.handleEntity, readRequest("/entities/"+ent, "e", ent)},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := newDiscardWriter()
			b.ReportAllocs()
			for b.Loop() {
				w.n = 0
				c.h(w, c.r)
			}
			b.ReportMetric(float64(w.n), "bytes/resp")
		})
	}
}
