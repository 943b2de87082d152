package main

// metricDef mirrors one entry of BENCHMARK.json (metrics_test.go checks the
// two agree). Bound is the share of the parent's median by which the metric
// may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is reported by every workload on the untraced run. A "unit" is
// the workload's input unit: an edge update on raw-churn, a document
// elsewhere. Every timing is AT REFERENCE SPEED: divided by the speed factor
// the calibration readings around it gave (calib.go).
var endToEnd = []metricDef{
	// input generation, file writing, pipeline construction and warm-up:
	// everything before the measured window. Median of the timed set-ups.
	{"setup_s", "s", "lower", 0.25},
	// units whose result became visible per second; median over the
	// window's equal-work slices (the offered rate on the open-loop workload).
	{"units_per_s", "1/s", "higher", 0.25},
	// time from the moment the pipeline pulled the unit until its result
	// was visible; median over the slices of each slice's percentile.
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p95_us", "us", "lower", 0.25},
	// MemStats.Mallocs over the window ÷ units.
	{"allocs_per_unit", "1/unit", "lower", 0.15},
	// HeapAlloc after a forced GC at the end of the window minus the same
	// reading taken before the pipeline was built (inputs excluded).
	{"state_heap_mb", "MB", "lower", 0.25},
}

func endToEndMetrics(r *result) map[string]float64 {
	u := r.Untraced
	m := u.meter
	setups := append([]float64(nil), r.SetupS...)
	out := map[string]float64{
		"setup_s":        median(setups) / r.SetupSpeed,
		"units_per_s":    m.unitsPerSecond(),
		"latency_p50_us": m.quantileNs(0.50) / 1e3,
		"latency_p95_us": m.quantileNs(0.95) / 1e3,
		"state_heap_mb":  float64(u.stateHeap) / (1 << 20),
	}
	if m.units > 0 {
		out["allocs_per_unit"] = float64(u.mallocs) / float64(m.units)
	}
	return out
}

// perLayer is reported by every workload on the traced run (0 where the
// layer does no work on the workload). "stats" metrics are exact counts read
// from the layers' exported Stats() after the UNTRACED run; busy times are
// self times from the traced run.
var perLayer = []metricDef{
	// stream
	{Name: "stream.docs_in", Unit: "count", Better: "higher"},
	{Name: "stream.updates_out", Unit: "count", Better: "higher"},
	{Name: "stream.threshold_units", Unit: "count", Better: "higher"},
	{Name: "stream.retired_pairs", Unit: "count", Better: "higher"},
	{Name: "stream.epoch_pair_touches", Unit: "count", Better: "lower"},
	{Name: "stream.renorms", Unit: "count", Better: "lower"},
	{Name: "stream.tracked_pairs_end", Unit: "count", Better: "lower"},
	{Name: "stream.read_busy_s", Unit: "s", Better: "lower"},
	{Name: "stream.aggregate_busy_s", Unit: "s", Better: "lower"},
	{Name: "stream.pull_wait_s", Unit: "s", Better: "lower"},
	{Name: "stream.ingest_expand_busy_s", Unit: "s", Better: "lower"},
	{Name: "stream.ingest_producer_stall_s", Unit: "s", Better: "lower"},
	{Name: "stream.ingest_consumer_stall_s", Unit: "s", Better: "lower"},
	// core
	{Name: "core.update_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.threshold_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.call_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.explorations", Unit: "count", Better: "lower"},
	{Name: "core.cheap_explores", Unit: "count", Better: "lower"},
	{Name: "core.insertions", Unit: "count", Better: "lower"},
	{Name: "core.evictions", Unit: "count", Better: "lower"},
	{Name: "core.maxexplore_skips", Unit: "count", Better: "higher"},
	{Name: "core.events", Unit: "count", Better: "higher"},
	{Name: "core.max_index_nodes", Unit: "count", Better: "lower"},
	{Name: "core.insertions_per_explore", Unit: "ratio", Better: "higher"},
	// shard
	{Name: "shard.dispatch_busy_s", Unit: "s", Better: "lower"},
	{Name: "shard.worker_busy_s", Unit: "s", Better: "lower"},
	{Name: "shard.busy_skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.delivery_fraction", Unit: "ratio", Better: "lower"},
	{Name: "shard.dedup_ratio", Unit: "ratio", Better: "lower"},
	// story
	{Name: "story.sink_busy_s", Unit: "s", Better: "lower"},
	{Name: "story.records", Unit: "count", Better: "higher"},
	{Name: "story.born", Unit: "count", Better: "higher"},
	{Name: "story.merged", Unit: "count", Better: "higher"},
	{Name: "story.died", Unit: "count", Better: "higher"},
	{Name: "story.live_end", Unit: "count", Better: "higher"},
	// serve
	{Name: "serve.sink_busy_s", Unit: "s", Better: "lower"},
	{Name: "serve.publishes", Unit: "count", Better: "lower"},
	{Name: "serve.boundaries", Unit: "count", Better: "higher"},
	{Name: "serve.publish_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.http_reads_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.http_read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_top_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_story_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_entity_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_requests", Unit: "count", Better: "higher"},
	{Name: "serve.http_errors", Unit: "count", Better: "lower"},
	{Name: "serve.sse_delivered_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.freshness_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.freshness_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.freshness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.freshness_over_50ms_frac", Unit: "ratio", Better: "lower"},
	// persist
	{Name: "persist.append_busy_s", Unit: "s", Better: "lower"},
	{Name: "persist.frames", Unit: "count", Better: "higher"},
	{Name: "persist.bytes_logged", Unit: "count", Better: "lower"},
	{Name: "persist.snapshots_cut", Unit: "count", Better: "higher"},
	{Name: "persist.capture_busy_s", Unit: "s", Better: "lower"},
	{Name: "persist.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "persist.recover_s", Unit: "s", Better: "lower"},
	// the benchmark itself
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "run.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "run.latency_max_us", Unit: "us", Better: "lower"},
	// what the calibration did to the untraced run: the box's speed factor
	// (median over slices; > 1: slower than the reference) and the window's
	// throughput as measured, not rescaled
	{Name: "run.speed_factor", Unit: "ratio", Better: "lower"},
	{Name: "run.raw_units_per_s", Unit: "1/s", Better: "higher"},
}

// perLayerMetrics assembles every per-layer metric of a traced invocation.
func perLayerMetrics(r *result) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	c := &r.Untraced.counts
	out["stream.docs_in"] = float64(c.DocsIn)
	out["stream.updates_out"] = float64(c.UpdatesOut)
	out["stream.threshold_units"] = float64(c.ThresholdUnits)
	out["stream.retired_pairs"] = float64(c.RetiredPairs)
	out["stream.epoch_pair_touches"] = float64(c.EpochPairTouches)
	out["stream.renorms"] = float64(c.Renorms)
	out["stream.tracked_pairs_end"] = float64(c.TrackedPairs)
	out["stream.ingest_expand_busy_s"] = c.IngestExpandBusy
	out["stream.ingest_producer_stall_s"] = c.IngestProducerStall
	out["stream.ingest_consumer_stall_s"] = c.IngestConsumerStall
	out["core.explorations"] = float64(c.Explorations)
	out["core.cheap_explores"] = float64(c.CheapExplores)
	out["core.insertions"] = float64(c.Insertions)
	out["core.evictions"] = float64(c.Evictions)
	out["core.maxexplore_skips"] = float64(c.MaxExploreSkips)
	out["core.events"] = float64(c.Events)
	out["core.max_index_nodes"] = float64(c.MaxIndexNodes)
	if n := c.Explorations + c.CheapExplores; n > 0 {
		out["core.insertions_per_explore"] = float64(c.Insertions) / float64(n)
	}
	out["shard.worker_busy_s"] = c.ShardWorkerBusy
	out["shard.busy_skew"] = c.ShardBusySkew
	out["shard.delivery_fraction"] = c.ShardDeliveryFraction
	out["shard.dedup_ratio"] = c.ShardDedupRatio
	out["story.records"] = float64(c.Records)
	out["story.born"] = float64(c.Born)
	out["story.merged"] = float64(c.Merged)
	out["story.died"] = float64(c.Died)
	out["story.live_end"] = float64(c.LiveEnd)
	out["serve.publishes"] = float64(c.Publishes)
	out["serve.boundaries"] = float64(c.Boundaries)
	if c.Boundaries > 0 {
		out["serve.publish_ratio"] = float64(c.Publishes) / float64(c.Boundaries)
	}
	out["persist.frames"] = float64(c.Frames)
	out["persist.bytes_logged"] = float64(c.BytesLogged)
	out["persist.snapshots_cut"] = float64(c.SnapshotsCut)

	// Self times of the traced run.
	var self [nLayers]float64
	var coreCalls hist
	for _, t := range r.Traced.tracers {
		for l := layerID(0); l < nLayers; l++ {
			self[l] += t.selfSeconds(l)
		}
		coreCalls.merge(&t.callHist[lCoreUpdate])
		coreCalls.merge(&t.callHist[lCoreThreshold])
	}
	// The paced reader of the open-loop workload waits for due times inside
	// the source's Next: that wait is idleness, not read work.
	out["stream.read_busy_s"] = self[lRead] - r.Traced.extra["stream.read_wait_s"]
	out["stream.aggregate_busy_s"] = self[lAggregate]
	out["stream.pull_wait_s"] = self[lPullWait]
	out["core.update_busy_s"] = self[lCoreUpdate]
	out["core.threshold_busy_s"] = self[lCoreThreshold]
	out["core.call_p99_us"] = coreCalls.quantile(0.99) / 1e3
	out["shard.dispatch_busy_s"] = self[lShardDispatch]
	out["story.sink_busy_s"] = self[lStorySink]
	out["serve.sink_busy_s"] = self[lServeSink]
	out["persist.append_busy_s"] = self[lAppend]
	out["persist.capture_busy_s"] = self[lCapture]
	if wall := r.Traced.meter.wallSeconds(); wall > 0 {
		out["trace.unattributed_frac"] = self[lDriver] / wall
	}
	if r.Def.Name == "serve-durable" {
		// The schedule fixes the wall time; tracing shows in the median
		// per-document latency.
		if up := r.Untraced.meter.quantileNs(0.5); up > 0 {
			out["trace.overhead_frac"] = (r.Traced.meter.quantileNs(0.5) - up) / up
		}
	} else if uw := r.Untraced.meter.refSeconds(); uw > 0 {
		// Both windows at reference speed: the two runs are half a minute apart.
		out["trace.overhead_frac"] = (r.Traced.meter.refSeconds() - uw) / uw
	}
	out["run.latency_p99_us"] = r.Untraced.meter.quantileNs(0.99) / 1e3
	out["run.latency_max_us"] = float64(r.Untraced.meter.all.max) / 1e3
	out["run.speed_factor"] = r.Untraced.meter.speedFactor()
	if uw := r.Untraced.meter.wallSeconds(); uw > 0 {
		out["run.raw_units_per_s"] = float64(r.Untraced.meter.units) / uw
	}
	// Metrics the workload measured outside the tracers (HTTP client, SSE,
	// pacing, checkpoint and recovery): untraced values, overridden by the
	// traced run only where it alone has them.
	for k, v := range r.Untraced.extra {
		if _, ok := out[k]; ok {
			out[k] = v
		}
	}
	return out
}
