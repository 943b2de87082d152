package serve

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadConfig tunes the closed-loop read harness.
type LoadConfig struct {
	// Readers is the number of concurrent closed-loop readers (each issues
	// its next query the moment the previous one returns). Defaults to 4.
	Readers int
	// TopK is the k of each top-k query. Defaults to 10.
	TopK int
	// SampleCap bounds the per-reader latency reservoir. Defaults to 4096.
	SampleCap int
	// Seed seeds the reservoir sampling so runs are reproducible.
	Seed int64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Readers <= 0 {
		c.Readers = 4
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	if c.SampleCap <= 0 {
		c.SampleCap = 4096
	}
	return c
}

// LoadStats is the result of a load run: closed-loop read throughput and
// latency percentiles over the sampled reads.
type LoadStats struct {
	Readers int           `json:"readers"`
	TopK    int           `json:"top_k"`
	Reads   uint64        `json:"reads"`
	Wall    time.Duration `json:"wall_ns"`
	P50     time.Duration `json:"p50_ns"`
	P95     time.Duration `json:"p95_ns"`
	P99     time.Duration `json:"p99_ns"`
	Samples int           `json:"samples"`
}

// QPS returns reads per second of wall time, 0 for a zero-duration run (the
// same guard the replay throughput reporting applies — a coarse clock must
// not turn into +Inf in JSON output).
func (s LoadStats) QPS() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Reads) / s.Wall.Seconds()
}

// reader is one closed-loop load generator with a latency reservoir.
type reader struct {
	reads   uint64
	samples []time.Duration
	seen    int64
	rng     *rand.Rand
	cap     int
}

func (r *reader) observe(d time.Duration) {
	r.reads++
	r.seen++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, d)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.samples[j] = d
	}
}

// Load is a running closed-loop read workload against a View. Each reader
// performs the full serving read path per iteration — load the snapshot,
// take the top-k ranks, fetch every ranked entry — exactly what the HTTP
// top-k handler does minus encoding.
type Load struct {
	cfg     LoadConfig
	view    *View
	stop    chan struct{}
	done    sync.WaitGroup
	readers []*reader
	start   time.Time

	// consumed defeats dead-code elimination of the read path.
	consumed atomic.Uint64
}

// StartLoad spawns the readers. Call Stop to end the run and collect stats.
func StartLoad(v *View, cfg LoadConfig) *Load {
	cfg = cfg.withDefaults()
	l := &Load{cfg: cfg, view: v, stop: make(chan struct{}), start: time.Now()}
	l.readers = make([]*reader, cfg.Readers)
	for i := range l.readers {
		r := &reader{rng: rand.New(rand.NewSource(cfg.Seed + int64(i))), cap: cfg.SampleCap}
		l.readers[i] = r
		l.done.Add(1)
		go l.run(r)
	}
	return l
}

func (l *Load) run(r *reader) {
	defer l.done.Done()
	var sink uint64
	for {
		select {
		case <-l.stop:
			l.consumed.Add(sink)
			return
		default:
		}
		t0 := time.Now()
		snap := l.view.Snapshot()
		for _, rk := range snap.Top(l.cfg.TopK) {
			e, _ := snap.Story(rk.Story)
			sink += uint64(len(e.Entities)) + uint64(len(e.Subgraphs))
		}
		r.observe(time.Since(t0))
	}
}

// Stop ends the workload and returns merged statistics.
func (l *Load) Stop() LoadStats {
	close(l.stop)
	l.done.Wait()
	wall := time.Since(l.start)

	st := LoadStats{Readers: l.cfg.Readers, TopK: l.cfg.TopK, Wall: wall}
	var all []time.Duration
	for _, r := range l.readers {
		st.Reads += r.reads
		all = append(all, r.samples...)
	}
	st.Samples = len(all)
	st.P50 = percentile(all, 0.50)
	st.P95 = percentile(all, 0.95)
	st.P99 = percentile(all, 0.99)
	return st
}

// percentile returns the q-quantile (0 < q ≤ 1) of the samples by the
// nearest-rank method; it sorts its argument in place.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(q*float64(len(samples))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return samples[i]
}
