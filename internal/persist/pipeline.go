package persist

import (
	"dyndens/internal/core"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// Capture/restore helpers: the glue between the Store and the pipeline's
// per-layer state exports. Capture functions run synchronously at a drained
// boundary (every handed-out unit processed, aggregator Drained, tracker
// resolvable) and return a PipelineState whose Seq the Store stamps; restore
// functions rebuild each layer from a recovered state, behaving exactly like
// the plain constructors when there is nothing to restore.

// CaptureSingle captures a pipeline. agg and tr may be nil (edge-stream
// pipelines have no co-occurrence front-end; replay-only runs have no story
// layer). A tracker wrapped by a serve.Builder must be synced
// through Builder.Sync before capture so the serving view folds the same
// boundary; the tracker-level Sync here is then a no-op.
func CaptureSingle(eng *core.Engine, agg *stream.Aggregator, tr *story.Tracker) (*PipelineState, error) {
	gs := eng.Graph().ExportState()
	es := eng.ExportState()
	st := &PipelineState{Graph: &gs, Engine: &es}
	if agg != nil {
		as, err := agg.ExportState()
		if err != nil {
			return nil, err
		}
		st.Agg = &as
	}
	if tr != nil {
		tr.Sync()
		ts, err := tr.ExportState()
		if err != nil {
			return nil, err
		}
		st.Tracker = &ts
	}
	return st, nil
}

// RestoreEngine builds the engine, importing the recovered state when st
// carries one.
func RestoreEngine(cfg core.Config, st *PipelineState) (*core.Engine, error) {
	eng, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if st == nil || st.Engine == nil {
		return eng, nil
	}
	if err := eng.ImportState(*st.Graph, *st.Engine); err != nil {
		return nil, err
	}
	return eng, nil
}

// RestoreAggregator builds the co-occurrence front-end over docs — normally
// the Store's recovery chain — resuming from the recovered weight table and
// epoch clock when st carries one.
func RestoreAggregator(docs stream.DocumentSource, cfg stream.AggregatorConfig, st *PipelineState) (*stream.Aggregator, error) {
	if st == nil || st.Agg == nil {
		return stream.NewAggregator(docs, cfg)
	}
	return stream.NewAggregatorFromState(docs, cfg, *st.Agg)
}

// RestoreTracker builds the story layer, resuming story identities from the
// recovered table when st carries one.
func RestoreTracker(cfg story.Config, st *PipelineState) (*story.Tracker, error) {
	if st == nil || st.Tracker == nil {
		return story.NewTracker(cfg)
	}
	return story.NewTrackerFromState(cfg, *st.Tracker)
}
