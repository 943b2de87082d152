package persist

import (
	"fmt"

	"dyndens/internal/core"
	"dyndens/internal/graph"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// PipelineState is the full durable state of one pipeline at a drained stream
// boundary: everything a restarted process needs to resume as if it had
// processed the whole prefix itself. Engine is set with Graph; Agg and Tracker
// are present when the pipeline has a co-occurrence front-end and a story
// layer.
type PipelineState struct {
	// Seq is the number of durable input units covered by this state:
	// documents for co-occurrence pipelines, source batches for edge streams.
	Seq uint64
	// Ticks is the cumulative logical engine tick count at the boundary —
	// the sequence downstream boundary consumers (the story tracker) were
	// closed with; restart resumes tick accounting from here.
	Ticks uint64

	Graph   *graph.State
	Engine  *core.EngineState
	Agg     *stream.AggregatorState
	Tracker *story.TrackerState
}

func encodeGraphState(e *encoder, gs *graph.State) {
	e.u32(uint32(len(gs.EdgeU)))
	for i := range gs.EdgeU {
		e.u32(uint32(gs.EdgeU[i]))
		e.u32(uint32(gs.EdgeV[i]))
		e.f64(gs.EdgeW[i])
	}
}

// decodeGraphState reads the graph state of a snapshot in the given format
// version. Versions 1 and 2 stored the set of every vertex that ever carried
// an edge ahead of the edges; the graph no longer keeps one, so the set is
// read and dropped.
func decodeGraphState(d *decoder, version uint32) graph.State {
	var gs graph.State
	if version < 3 {
		d.set()
	}
	n := d.count(16)
	if d.err != nil {
		return gs
	}
	gs.EdgeU = make([]graph.Vertex, n)
	gs.EdgeV = make([]graph.Vertex, n)
	gs.EdgeW = make([]float64, n)
	for i := 0; i < n; i++ {
		gs.EdgeU[i] = graph.Vertex(d.u32())
		gs.EdgeV[i] = graph.Vertex(d.u32())
		gs.EdgeW[i] = d.f64()
	}
	return gs
}

func encodeEngineState(e *encoder, es *core.EngineState) {
	e.f64(es.Scale)
	e.u32(uint32(len(es.Dense)))
	for _, de := range es.Dense {
		e.set(de.Set)
		e.f64(de.Score)
		e.boolean(de.Star)
		e.f64(de.StarScore)
	}
}

func decodeEngineState(d *decoder) core.EngineState {
	var es core.EngineState
	es.Scale = d.f64()
	n := d.count(13)
	if d.err != nil {
		return es
	}
	es.Dense = make([]core.DenseEntry, n)
	for i := range es.Dense {
		es.Dense[i].Set = d.set()
		es.Dense[i].Score = d.f64()
		es.Dense[i].Star = d.boolean()
		es.Dense[i].StarScore = d.f64()
	}
	return es
}

func encodeAggState(e *encoder, as *stream.AggregatorState) {
	e.boolean(as.Started)
	e.i64(as.Epoch)
	e.i64(as.LastTime)
	e.f64(as.Lambda)
	e.u32(uint32(len(as.Pairs)))
	for _, p := range as.Pairs {
		e.u32(uint32(p.A))
		e.u32(uint32(p.B))
		e.f64(p.W)
	}
	e.u32(uint32(len(as.Retire)))
	for _, r := range as.Retire {
		e.u32(uint32(r.A))
		e.u32(uint32(r.B))
		e.f64(r.ExpLambda)
	}
}

func decodeAggState(d *decoder) *stream.AggregatorState {
	as := &stream.AggregatorState{
		Started:  d.boolean(),
		Epoch:    d.i64(),
		LastTime: d.i64(),
		Lambda:   d.f64(),
	}
	n := d.count(16)
	if d.err == nil && n > 0 {
		as.Pairs = make([]stream.AggregatorPair, n)
		for i := range as.Pairs {
			as.Pairs[i] = stream.AggregatorPair{
				A: graph.Vertex(d.u32()), B: graph.Vertex(d.u32()), W: d.f64(),
			}
		}
	}
	n = d.count(16)
	if d.err == nil && n > 0 {
		as.Retire = make([]stream.RetireEntryState, n)
		for i := range as.Retire {
			as.Retire[i] = stream.RetireEntryState{
				A: graph.Vertex(d.u32()), B: graph.Vertex(d.u32()), ExpLambda: d.f64(),
			}
		}
	}
	return as
}

func encodeTrackerState(e *encoder, ts *story.TrackerState) {
	e.u64(ts.Seq)
	e.u64(uint64(ts.NextID))
	e.u32(uint32(len(ts.Stories)))
	for _, s := range ts.Stories {
		e.u64(uint64(s.ID))
		e.set(s.Entities)
		e.u32(uint32(len(s.Live)))
		for _, set := range s.Live {
			e.set(set)
		}
		e.u64(s.BornSeq)
		e.u64(s.LastSeq)
		e.u64(s.FadeSeq)
		e.u64(s.SnapSeq)
		e.set(s.Snapshot)
	}
	for k := story.Born; k <= story.Died; k++ {
		e.u64(uint64(ts.Counts[k]))
	}
}

// decodeTrackerState reads the tracker state of a snapshot in the given
// format version. Version 1 stored the whole lifecycle log where version 2
// stores the five per-kind counts; a version-1 log is counted by kind and
// dropped, so a directory written before the change resumes with its totals.
func decodeTrackerState(d *decoder, version uint32) *story.TrackerState {
	ts := &story.TrackerState{Seq: d.u64(), NextID: story.ID(d.u64())}
	n := d.count(48)
	for i := 0; i < n && d.err == nil; i++ {
		s := story.StoryState{ID: story.ID(d.u64()), Entities: d.set()}
		m := d.count(4)
		for j := 0; j < m && d.err == nil; j++ {
			s.Live = append(s.Live, d.set())
		}
		s.BornSeq = d.u64()
		s.LastSeq = d.u64()
		s.FadeSeq = d.u64()
		s.SnapSeq = d.u64()
		s.Snapshot = d.set()
		ts.Stories = append(ts.Stories, s)
	}
	if version == 1 {
		n = d.count(29) // seq, kind, story, other, entity count
		for i := 0; i < n && d.err == nil; i++ {
			d.u64()
			k := story.LifecycleKind(d.u8())
			d.u64()
			d.u64()
			d.set()
			if k < story.Born || k > story.Died {
				d.fail("persist: version-1 lifecycle record %d has unknown kind %d", i, k)
				break
			}
			ts.Counts[k]++
		}
		return ts
	}
	for k := story.Born; k <= story.Died; k++ {
		ts.Counts[k] = int(d.u64())
	}
	return ts
}

func encodePipelineState(e *encoder, st *PipelineState) {
	e.u64(st.Seq)
	e.u64(st.Ticks)
	e.boolean(st.Graph != nil)
	if st.Graph != nil {
		encodeGraphState(e, st.Graph)
	}
	e.boolean(st.Engine != nil)
	if st.Engine != nil {
		encodeEngineState(e, st.Engine)
	}
	e.boolean(false) // sharded state: see decodePipelineState
	e.boolean(st.Agg != nil)
	if st.Agg != nil {
		encodeAggState(e, st.Agg)
	}
	e.boolean(st.Tracker != nil)
	if st.Tracker != nil {
		encodeTrackerState(e, st.Tracker)
	}
}

func decodePipelineState(d *decoder, version uint32) *PipelineState {
	st := &PipelineState{Seq: d.u64(), Ticks: d.u64()}
	if d.boolean() {
		gs := decodeGraphState(d, version)
		st.Graph = &gs
	}
	if d.boolean() {
		es := decodeEngineState(d)
		st.Engine = &es
	}
	// Earlier builds could shard the engine and stored a sharded deployment's
	// state under this flag. This build runs one engine and cannot resume it.
	if d.boolean() {
		d.fail("persist: snapshot holds the state of a sharded engine; this build runs a single engine and cannot resume it")
		return st
	}
	if d.boolean() {
		st.Agg = decodeAggState(d)
	}
	if d.boolean() {
		st.Tracker = decodeTrackerState(d, version)
	}
	return st
}

// sanity checks the mode invariants a well-formed snapshot satisfies before
// any restore constructor sees it.
func (st *PipelineState) sanity() error {
	if st.Engine != nil && st.Graph == nil {
		return fmt.Errorf("persist: snapshot is missing the engine's graph")
	}
	return nil
}
