package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// serve-durable: everything on, as `dyndens serve -wal` runs it. Documents
// arrive in an OPEN loop at a fixed rate through a paced reader; one
// HTTP keep-alive connection (closed loop: the next request goes out only
// after the previous response, and no faster than serveHTTPRate, so the read
// load is the same from run to run) and one SSE connection read beside the
// writer.

const (
	serveRate      = 3000.0 // documents per second offered: ≈ 13 % of what docs-steady sustains on one core
	serveHTTPRate  = 1000.0 // requests per second the HTTP client issues at most (closed loop with a rate cap)
	serveSnapEvery = 20000  // WAL snapshot period in documents
	serveWarmDocs  = 20_000 // unpaced documents before the window
	serveGiveUp    = 3.0    // seconds past the schedule's end after which the generator stops
	serveLateLimit = 1.0    // seconds behind schedule at the end that count as "not sustainable"
)

var serveSpec = docsSpec{
	Gen: steadyGen, WarmDocs: serveWarmDocs, Ramp: 2500, CheckGap: 10_000,
	Pipe: pipeConfig{T: 6.5, Nmax: 5, Epoch: 100, Decay: 0.92, Prune: 1e-3, Builder: true, HTTP: true, SnapEvery: serveSnapEvery},
}

type serveInstance struct {
	rc     *runConfig
	wd     *watchdog
	spec   docsSpec
	input  *docInput
	reader *pacedReader
	pipe   *singlePipe
	tr     *tracer
	recall recallScore

	ln      net.Listener
	srv     *http.Server
	srvDone chan struct{}

	warm     int64 // unpaced warm-up documents
	pullNs   int64 // when the reader handed the pipeline the document in flight
	docsDone int64 // documents completed (writer goroutine)
	paced    int64 // of those, paced ones
	m        *meter
	fresh    hist // due time → visible, every paced document
	over50ms int64

	client *httpClient
	sse    *sseClient

	mem memWindow
}

func setupServe(rc *runConfig, wd *watchdog, traced bool) (instance, error) {
	wd.pause()
	in := &serveInstance{rc: rc, wd: wd, spec: serveSpec}
	in.warm = rc.warm(serveWarmDocs)
	in.input = genDocs(rc.Seed, int(in.warm+rc.Units), in.spec.Gen)
	in.recall = recallScore{planted: in.input.Planted, ramp: in.spec.Ramp}
	in.spec.Pipe.WALDir = filepath.Join(rc.OutDir, fmt.Sprintf("wal-%d", os.Getpid()))
	if err := os.RemoveAll(in.spec.Pipe.WALDir); err != nil {
		return nil, err
	}
	if traced {
		in.tr = newTracer("writer")
	}
	in.mem.base = readMem(true)
	in.reader = newPacedReader(in.input, int(in.warm), serveRate)
	var err error
	if in.pipe, err = newSinglePipe(in.spec.Pipe, newDocReaderSource("paced", in.reader), in.pull, true, in.tr); err != nil {
		in.discard()
		return nil, err
	}
	if in.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		in.discard()
		return nil, err
	}
	in.srv = &http.Server{Handler: in.pipe.handler()}
	in.srvDone = make(chan struct{})
	go func() {
		defer close(in.srvDone)
		in.srv.Serve(in.ln) // returns http.ErrServerClosed at shutdown
	}()

	wd.enter("warm-up")
	in.m = newMeter(in.warm, wd, nil)
	if err := in.drive(); err != nil {
		in.discard()
		return nil, err
	}
	wd.pause()
	return in, nil
}

func (in *serveInstance) pull() { in.pullNs = nowNs() }

// hook runs on the writer goroutine after every batch; a drained aggregator
// is a document boundary. The end-to-end latency runs from the hand-over of
// the document, like on the file workloads; FRESHNESS — from the document's
// due time, so including any wait a stall imposed on it — is kept beside it
// and reported with the per-layer metrics: it is the number a subscriber
// cares about, but on a shared two-core box it moves by an order of magnitude
// from one minute to the next (README "Noise"), so it cannot carry a bound.
func (in *serveInstance) hook() error {
	if !in.pipe.drained() {
		return nil
	}
	now := nowNs()
	in.docsDone++
	var stop bool
	if in.docsDone <= in.warm {
		stop = in.m.done(now, 0)
	} else {
		fresh := now - in.reader.dueNs(int(in.paced))
		in.paced++
		in.fresh.add(fresh)
		if fresh > 50e6 {
			in.over50ms++
		}
		stop = in.m.done(now, now-in.pullNs)
		if in.docsDone%in.spec.CheckGap == 0 {
			in.recall.check(int(in.docsDone), in.pipe.stories())
		}
	}
	if err := in.pipe.maybeSnapshot(); err != nil {
		return err
	}
	if stop {
		return errStop
	}
	return nil
}

func (in *serveInstance) drive() error {
	if in.tr == nil {
		return in.pipe.runProgramDriver(in.hook)
	}
	return in.pipe.runTracedLoop(func() int64 { return in.docsDone }, in.hook)
}

func (in *serveInstance) measure() error {
	total := in.rc.Units
	base := "http://" + in.ln.Addr().String()
	in.client = startHTTPClient(base)
	in.sse = startSSEClient(base)
	if err := in.sse.waitConnected(2 * time.Second); err != nil {
		return err
	}
	recordsBefore := in.pipe.recs

	in.mem.before = readMem(false)
	in.wd.enter("window")
	if in.tr != nil {
		in.tr.reset()
	}
	// Fixed schedule: `total` documents, one every 1/serveRate seconds, so
	// units_per_s is the offered rate unless the pipeline cannot keep up.
	span := float64(total) / serveRate
	in.m = in.rc.openWindow(in.wd, in.pipe.work)
	in.reader.begin(in.m.start, in.m.start+int64((span+serveGiveUp)*1e9))
	in.client.begin()
	err := in.drive()
	in.m.finishWork()
	in.wd.pause()
	in.mem.after = readMem(false)
	in.client.stop()
	in.sse.expect(in.pipe.recs - recordsBefore)
	return err
}

func (in *serveInstance) finish() (*outcome, error) {
	o := newOutcome(in.m, &in.mem)
	o.attempted += in.client.requests

	// Open-loop accounting.
	o.extra["gen.late_p99_us"] = in.reader.late.quantile(0.99) / 1e3
	o.extra["stream.read_wait_s"] = float64(in.reader.waited) / 1e9
	o.extra["serve.freshness_p50_ms"] = in.fresh.quantile(0.50) / 1e6
	o.extra["serve.freshness_p95_ms"] = in.fresh.quantile(0.95) / 1e6
	o.extra["serve.freshness_p99_ms"] = in.fresh.quantile(0.99) / 1e6
	if in.m.units > 0 {
		o.extra["serve.freshness_over_50ms_frac"] = float64(in.over50ms) / float64(in.m.units)
	}
	if want := in.rc.Units; in.m.units < want {
		o.failf("only %d of %d scheduled documents completed: the generator gave up %.0fs past the schedule", in.m.units, want, serveGiveUp)
	}
	if behind := float64(in.reader.behind) / 1e9; behind > serveLateLimit {
		o.failf("generator was %.2fs behind schedule at the end: %.0f docs/s is not sustainable here", behind, serveRate)
	}
	o.info["late_end_ms"] = float64(in.reader.behind) / 1e6

	// Reads beside the writer.
	in.client.report(o)
	delivered := in.sse.close()
	if exp := in.sse.expected; exp > 0 {
		o.extra["serve.sse_delivered_ratio"] = float64(delivered) / float64(exp)
	}
	o.info["sse_records"] = float64(delivered)

	// The writer: final checkpoint, then the table as of the checkpoint.
	if seq := in.pipe.visibleSeq(); seq != in.pipe.ticks {
		o.failf("View.LastSeq() = %d after %d engine boundaries", seq, in.pipe.ticks)
	}
	ckpt, err := in.pipe.checkpoint()
	if err != nil {
		return nil, err
	}
	o.extra["persist.checkpoint_s"] = ckpt.Seconds()
	o.counts = in.pipe.counts()
	atCheckpoint := storyFingerprint(in.pipe.stories())
	if err := in.pipe.finish(); err != nil {
		return nil, err
	}
	in.recall.check(int(in.docsDone)-1, in.pipe.stories())
	o.fingerprint = storyFingerprint(in.pipe.stories())
	in.stopServer()
	o.settleHeap(&in.mem)

	// The same layer the other way round: reopen the directory and rebuild.
	start := time.Now()
	rows, err := recoverStories(in.spec.Pipe)
	o.extra["persist.recover_s"] = time.Since(start).Seconds()
	switch {
	case err != nil:
		o.failf("recovery from the WAL directory: %v", err)
	case storyFingerprint(rows) != atCheckpoint:
		o.failf("recovered story table (%d rows, %016x) differs from the one checkpointed (%016x)", len(rows), storyFingerprint(rows), atCheckpoint)
	}

	if in.tr != nil {
		o.tracers = []*tracer{in.tr, in.client.tr}
	}
	checkEngine(o, true)
	if in.rc.FullSize {
		checkStationary(o)
	}
	checkDocsRegime(o, &in.spec, &in.recall, false)
	in.discard()
	return o, nil
}

func (in *serveInstance) stopServer() {
	if in.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := in.srv.Shutdown(ctx); err != nil {
		in.srv.Close()
	}
	<-in.srvDone
	in.srv = nil
}

func (in *serveInstance) discard() {
	if in.client != nil {
		in.client.stop()
	}
	if in.sse != nil {
		in.sse.close()
	}
	in.stopServer()
	if in.pipe != nil && in.pipe.store != nil {
		in.pipe.store.Close()
	}
	if dir := in.spec.Pipe.WALDir; dir != "" {
		os.RemoveAll(dir)
	}
	in.pipe, in.input = nil, nil
}

// ---------------------------------------------------------------------------
// HTTP client: one keep-alive connection, closed loop
// ---------------------------------------------------------------------------

// httpClient issues the request mix 70 % /stories/top?k=10, 20 %
// /stories/{id} (id from the last top response), 10 % /entities/{e} (an
// entity of that story), one request at a time, and checks every response.
type httpClient struct {
	base string
	hc   *http.Client
	tr   *tracer // per-endpoint latency histograms (spans http.top / .story / .entity)
	wg   sync.WaitGroup
	quit atomic.Bool
	on   atomic.Bool // count requests (the window has begun)

	requests, ok, gone int64
	errors             []string
	all                hist
	startNs, endNs     int64
	lastID             uint64
	lastEntity         int32
	haveStory          bool
}

func startHTTPClient(base string) *httpClient {
	c := &httpClient{
		base: base, tr: newTracer("http-client"),
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   5 * time.Second,
		},
	}
	c.wg.Add(1)
	go c.loop()
	return c
}

func (c *httpClient) begin() { c.on.Store(true) }

func (c *httpClient) stop() {
	if !c.quit.Swap(true) {
		c.wg.Wait()
		c.hc.CloseIdleConnections()
	}
}

func (c *httpClient) fail(format string, args ...any) {
	if len(c.errors) < 5 {
		c.errors = append(c.errors, fmt.Sprintf(format, args...))
	}
}

type topBody struct {
	Epoch   uint64 `json:"epoch"`
	Stories []struct {
		ID       uint64  `json:"id"`
		Density  float64 `json:"density"`
		Entities []int32 `json:"entities"`
	} `json:"stories"`
}

func (c *httpClient) loop() {
	defer c.wg.Done()
	var body []byte
	for i := 0; !c.quit.Load(); i++ {
		counted := c.on.Load()
		if counted && c.startNs == 0 {
			c.startNs = nowNs()
		}
		if counted {
			// The rate cap: request k of the window goes out no earlier than
			// k/serveHTTPRate after the window began.
			if wait := c.startNs + int64(float64(c.requests)*1e9/serveHTTPRate) - nowNs(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
		}
		// 7 : 2 : 1 in a fixed rotation of ten.
		layer, url := lHTTPTop, c.base+"/stories/top?k=10"
		switch slot := i % 10; {
		case slot == 9 && c.haveStory:
			layer, url = lHTTPEntity, fmt.Sprintf("%s/entities/%d", c.base, c.lastEntity)
		case slot%4 == 3 && c.haveStory: // slots 3 and 7
			layer, url = lHTTPStory, fmt.Sprintf("%s/stories/%d", c.base, c.lastID)
		}
		start := nowNs()
		if counted {
			c.tr.setUnit(c.requests)
			c.tr.begin(layer)
		}
		resp, err := c.hc.Get(url)
		status := 0
		if err == nil {
			status = resp.StatusCode
			body, err = readAll(body[:0], resp.Body)
			resp.Body.Close()
		}
		end := nowNs()
		if !counted {
			continue
		}
		c.tr.end()
		c.requests++
		c.all.add(end - start)
		c.endNs = end
		switch {
		case err != nil:
			c.fail("GET %s: %v", url, err)
		case status == http.StatusNotFound && layer == lHTTPStory:
			c.gone++ // the story ended between the two reads: a valid answer
			c.ok++
		case status != http.StatusOK:
			c.fail("GET %s: status %d", url, status)
		case !json.Valid(body):
			c.fail("GET %s: body is not JSON", url)
		case layer == lHTTPTop:
			var top topBody
			if err := json.Unmarshal(body, &top); err != nil {
				c.fail("GET %s: %v", url, err)
				break
			}
			for j := 1; j < len(top.Stories); j++ {
				if top.Stories[j].Density > top.Stories[j-1].Density {
					c.fail("GET %s: densities not non-increasing at rank %d (epoch %d)", url, j, top.Epoch)
					break
				}
			}
			if len(top.Stories) > 0 && len(top.Stories[0].Entities) > 0 {
				c.lastID, c.lastEntity, c.haveStory = top.Stories[0].ID, top.Stories[0].Entities[0], true
			}
			c.ok++
		default:
			c.ok++
		}
	}
}

func readAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (c *httpClient) report(o *outcome) {
	failed := c.requests - c.ok
	o.extra["serve.http_requests"] = float64(c.requests)
	o.extra["serve.http_errors"] = float64(failed)
	if span := float64(c.endNs-c.startNs) / 1e9; span > 0 {
		o.extra["serve.http_reads_per_s"] = float64(c.ok) / span
	}
	o.extra["serve.http_read_p99_ms"] = c.all.quantile(0.99) / 1e6
	o.extra["serve.http_top_p99_ms"] = c.tr.callHist[lHTTPTop].quantile(0.99) / 1e6
	o.extra["serve.http_story_p99_ms"] = c.tr.callHist[lHTTPStory].quantile(0.99) / 1e6
	o.extra["serve.http_entity_p99_ms"] = c.tr.callHist[lHTTPEntity].quantile(0.99) / 1e6
	o.info["http_gone"] = float64(c.gone)
	for _, e := range c.errors {
		o.failf("http: %s", e)
	}
	if failed > int64(len(c.errors)) {
		o.failf("http: %d more failed requests", failed-int64(len(c.errors)))
	}
}

// ---------------------------------------------------------------------------
// SSE client: one /events connection
// ---------------------------------------------------------------------------

type sseClient struct {
	cancel    context.CancelFunc
	connected chan struct{}
	done      chan struct{}
	records   atomic.Int64
	expected  int64
	err       error
}

func startSSEClient(base string) *sseClient {
	ctx, cancel := context.WithCancel(context.Background())
	s := &sseClient{cancel: cancel, connected: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
		if err != nil {
			s.err = err
			close(s.connected)
			return
		}
		resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
		if err != nil {
			s.err = err
			close(s.connected)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		first := true
		for sc.Scan() {
			line := sc.Text()
			if first {
				first = false
				close(s.connected) // the ": connected" comment: the hub subscription is live
			}
			if strings.HasPrefix(line, "event:") {
				s.records.Add(1)
			}
		}
		if first {
			s.err = fmt.Errorf("sse: stream ended before the first line: %v", sc.Err())
			close(s.connected)
		}
	}()
	return s
}

func (s *sseClient) waitConnected(d time.Duration) error {
	select {
	case <-s.connected:
		return s.err
	case <-time.After(d):
		return fmt.Errorf("sse: not connected after %v", d)
	}
}

// expect records how many lifecycle records the writer produced while the
// client was connected, and gives the stream a moment to deliver the tail.
func (s *sseClient) expect(n int64) {
	s.expected = n
	for deadline := time.Now().Add(500 * time.Millisecond); s.records.Load() < n && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
}

// close ends the connection, waits for the reader goroutine, and returns the
// number of records received.
func (s *sseClient) close() int64 {
	s.cancel()
	<-s.done
	return s.records.Load()
}
