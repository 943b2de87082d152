package main

// table gives the reason each listed name stays. A key "X.*" covers X and
// every listed name under it. "bench/" is the benchmark module, which reads
// the program through its own go.mod; "item N" is that ROADMAP item. A name
// that only its own package's tests use gets no entry: delete it, or move it
// into a test file (export_test.go when the package's external tests need
// it). Other packages' tests are a reason: they check this package's output
// against its own state.
var table = map[string]string{
	"internal/baseline/brute.*": "test oracle: the brute-force enumerator tests and bench/ check the engine against",
	"internal/baseline/fade.*":  "test oracle: the per-pair fading sweep the aggregator's rescaled decay is checked against",

	"internal/core.CollectorSink.*":             "test sink: the stream and shard tests read what it collected",
	"internal/core.Config.EnableMaxExplore":     "bench/ sets it (item 6); the engine ignores it",
	"internal/core.CountingSink.*":              "test sink: the stream tests read its count",
	"internal/core.Engine.Config":               "oracle hook: the stream tests read the schedule in force (normalized T, δ_it)",
	"internal/core.Engine.DecayScale":           "oracle hook: the stream tests read λ",
	"internal/core.Engine.Dense":                "oracle hook: the shard tests list the indexed dense subgraphs",
	"internal/core.Engine.ImplicitFamilyCount":  "oracle hook: the shard tests count ImplicitTooDense families",
	"internal/core.Engine.OutputDenseCount":     "bench/ reports it",
	"internal/core.Engine.ValidateCertificates": "oracle hook: the stream tests check every reach certificate",
	"internal/core.Engine.ValidateIndex":        "oracle hook: the stream tests and bench/ check the index invariants",
	"internal/core.MustNew":                     "test constructor for the persist, serve, shard, story and stream tests",
	"internal/core.SetRetainer":                 "sink capability: sinks implement it without naming it; SinkRetainsSets asks it",
	"internal/core.SinkRetainsSets":             "the engine and MultiSink/FilterSink ask it of their sinks",
	"internal/core.Stats.AppliedOnly":           "ApplyOnly counts it (item 7); the shard tests read it",
	"internal/core.Stats.Batches":               "the engine counts units; the stream tests read it",
	"internal/core.Stats.MaxExploreSkips":       "bench/ reads it (item 6); always 0",
	"internal/core.Stats.StarInsertions":        "the engine counts ImplicitTooDense insertions; the shard tests read it",
	"internal/core.Stats.ThresholdTicks":        "the engine counts threshold units; the stream tests read it",
	"internal/core.UpdateBoundarySink":          "sink capability: sinks implement it without naming it; bench/ names it",

	"internal/density.ErrBadDeltaIt":             "error sentinel NewThresholds returns",
	"internal/density.ErrBadNmax":                "error sentinel NewThresholds returns",
	"internal/density.ErrBadThreshold":           "error sentinel NewThresholds and Normalize return",
	"internal/density.G":                         "the paper's g(n); the schedule is computed with it",
	"internal/density.Thresholds.Measure":        "schedule accessor; density's predicates read it",
	"internal/density.Thresholds.MinDenseScore":  "schedule accessor; the core tests probe the dense bound",
	"internal/density.Thresholds.MinOutputScore": "schedule accessor; the core tests probe the output bound",
	"internal/density.Thresholds.S":              "schedule accessor; density's predicates read it",
	"internal/density.ValidateMeasure":           "NewThresholds runs it",

	"internal/graph.Graph.NumEdges":    "bench/ reports it; String prints it",
	"internal/graph.Graph.NumVertices": "String prints it; the core tests size the graph",
	"internal/graph.Graph.SetWeight":   "the graph's own writes go through it; the brute tests build fixtures with it",

	"internal/index.Index.Lookup": "the index resolves sets with it; the core tests find interior nodes",
	"internal/index.Vertex":       "alias of vset.Vertex for index's own signatures",

	"internal/persist.Config.SegmentBytes": "WAL rotation knob: the store sizes segments by it; the CLI keeps the default",
	"internal/persist.PipelineState.*":     "snapshot contents: persist's restore constructors read them",

	"internal/serve.Entry":         "serving view row: serve's HTTP handlers read it",
	"internal/serve.Hub.*":         "SSE fan-out: serve's /events and /stats handlers call it",
	"internal/serve.NewView":       "serve's Builder constructs the view",
	"internal/serve.Rank":          "serving ranking row: serve's HTTP handlers read it",
	"internal/serve.RankedIndex":   "the serving view's incremental top-k, which the Builder keeps",
	"internal/serve.Snapshot":      "the published view: serve's HTTP handlers read it",
	"internal/serve.SubgraphRef":   "serving view row: serve's HTTP handlers read it",
	"internal/serve.View.LastSeq":  "bench/ waits on it",
	"internal/serve.View.Snapshot": "serve's HTTP handlers read it",
	"internal/serve.View.Stats":    "bench/ reads it; /stats serves it",
	"internal/serve.ViewStats":     "bench/ reads it; /stats serves it",

	"internal/shard.*": "item 7: the sharded engine survives only for bench/par.go",

	"internal/story.Config.Validate":  "NewTracker runs it",
	"internal/story.Merged":           "record kind: the tracker emits it",
	"internal/story.MustTracker":      "test constructor for the serve and stream tests",
	"internal/story.Split":            "record kind: the tracker emits it",
	"internal/story.Tracker.LiveKeys": "oracle hook: the serve tests compare it with the view's keys",
	"internal/story.Tracker.OwnerOf":  "oracle hook: the serve tests ask which story owns a subgraph",
	"internal/story.Updated":          "record kind: the tracker emits it",

	"internal/stream.AggregatorConfig.DecayMode": "bench/ sets it (item 6); DecayRescale is the only mode",
	"internal/stream.AggregatorConfig.Validate":  "NewAggregator runs it",
	"internal/stream.AggregatorStats.*":          "String prints them (the CLI's aggregate line); bench/ reads them one by one",
	"internal/stream.BatchMarker":                "the %% line of the edge-list format, which the file source reads",
	"internal/stream.DecayMode":                  "bench/ names it (item 6)",
	"internal/stream.DecayRescale":               "bench/ names it (item 6)",
	"internal/stream.DocSynthConfig.TimePerDoc":  "item 22: no caller sets it, but the WAL fingerprint's synth input id prints it",
	"internal/stream.DocSynthConfig.Validate":    "NewDocSynthetic runs it",
	"internal/stream.IngestStats":                "item 7: only a Pipeline source fills it; bench/ reads it",
	"internal/stream.MustDocSynthetic":           "test constructor for the serve and story tests",
	"internal/stream.MustSynthetic":              "test constructor for the core and story tests",
	"internal/stream.NewParallelAggregator":      "item 7: the pipelined front-end, only for bench/par.go",
	"internal/stream.NewShardReplay":             "item 7: the sharded replay driver, only for bench/par.go",
	"internal/stream.NewSliceDocSource":          "test constructor for the persist tests",
	"internal/stream.NewSliceSource":             "test constructor for the core tests",
	"internal/stream.ParseUpdate":                "the file source parses with it",
	"internal/stream.Pipeline":                   "item 7: the pipelined front-end, only for bench/par.go",
	"internal/stream.PipelineConfig":             "item 7: the pipelined front-end, only for bench/par.go",
	"internal/stream.ReplayStats.*":              "String prints them (the CLI's replay line)",
	"internal/stream.SegmentStats":               "ReplayStats' per-segment figures, printed by its String",
	"internal/stream.ShardLoadStats":             "item 7: the sharded replay's per-shard figures",
	"internal/stream.ShardReplay":                "item 7: the sharded replay driver, only for bench/par.go",
	"internal/stream.ShardReplayStats":           "item 7: the sharded replay driver's figures",
	"internal/stream.SliceDocSource":             "the type NewSliceDocSource returns",
	"internal/stream.SliceSource":                "the type NewSliceSource returns",
	"internal/stream.SynthConfig.Validate":       "NewSynthetic runs it",
	"internal/stream.ValidateThresholdScale":     "the aggregator and restore check scales with it; bench/ checks its threshold units",

	"internal/vset.Set.Max": "the persist tests read a set's largest vertex",
}
