package serve

import (
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/story"
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
	w := defaultWorkload()
	w.doc.Docs = 12000
	updates := w.updates(b)
	eng := core.MustNew(w.eng)
	var log updateLog
	eng.SetSink(&log)
	eng.ProcessAll(updates)

	trk := w.trk
	bld := NewBuilder(story.MustTracker(trk))
	for _, evs := range log.updates {
		for _, ev := range evs {
			bld.Emit(ev)
		}
		bld.EndUpdate()
	}
	st, vs := bld.Tracker().Stats(), bld.View().Stats()
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
