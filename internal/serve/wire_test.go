package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// The encoding/json reference for the append encoder in wire.go: the wire
// structs the read endpoints and /events used to marshal, and the handlers
// that marshalled them. The product's responses and frames must be
// byte-identical to these.

// storyJSON is the reference wire form of an Entry.
type storyJSON struct {
	ID        story.ID       `json:"id"`
	Density   float64        `json:"density"`
	Entities  []int32        `json:"entities"`
	Subgraphs []subgraphJSON `json:"subgraphs,omitempty"`
	NumSubs   int            `json:"subgraph_count"`
	BornSeq   uint64         `json:"born_seq"`
	LastSeq   uint64         `json:"last_seq"`
	Fading    bool           `json:"fading"`
}

// subgraphJSON is the reference wire form of a SubgraphRef, with the vertex
// set as its canonical key string.
type subgraphJSON struct {
	Key     string  `json:"key"`
	Density float64 `json:"density"`
}

func entryJSON(e *Entry, detail bool) storyJSON {
	ents := make([]int32, len(e.Entities))
	for i, v := range e.Entities {
		ents[i] = int32(v)
	}
	out := storyJSON{
		ID:       e.ID,
		Density:  e.Density,
		Entities: ents,
		NumSubs:  len(e.Subgraphs),
		BornSeq:  e.BornSeq,
		LastSeq:  e.LastSeq,
		Fading:   e.Fading,
	}
	if detail {
		for _, sg := range e.Subgraphs {
			out.Subgraphs = append(out.Subgraphs, subgraphJSON{Key: sg.Set.Key(), Density: sg.Density})
		}
	}
	return out
}

// recordJSON is the reference SSE wire form of a lifecycle record.
type recordJSON struct {
	Seq      uint64   `json:"seq"`
	Kind     string   `json:"kind"`
	Story    story.ID `json:"story"`
	Other    story.ID `json:"other,omitempty"`
	Entities []int32  `json:"entities"`
}

// refFrame is the reference SSE frame of a record.
func refFrame(rec story.Record) string {
	ents := make([]int32, len(rec.Entities))
	for i, v := range rec.Entities {
		ents[i] = int32(v)
	}
	data, err := json.Marshal(recordJSON{
		Seq: rec.Seq, Kind: rec.Kind.String(), Story: rec.Story, Other: rec.Other, Entities: ents,
	})
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("event: %s\ndata: %s\n\n", rec.Kind, data)
}

// refHandler answers the three read endpoints with the reference structs,
// through writeJSON.
func refHandler(view *View) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stories/top", func(w http.ResponseWriter, r *http.Request) {
		k := 10
		if q := r.URL.Query().Get("k"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad k %q", q)})
				return
			}
			k = n
		}
		snap := view.Snapshot()
		ranked := snap.Top(k)
		out := struct {
			Epoch   uint64      `json:"epoch"`
			Ranked  int         `json:"ranked"`
			Stories []storyJSON `json:"stories"`
		}{Epoch: snap.Epoch, Ranked: len(snap.Ranked), Stories: make([]storyJSON, 0, len(ranked))}
		for _, rk := range ranked {
			e, _ := snap.Story(rk.Story)
			out.Stories = append(out.Stories, entryJSON(e, false))
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /stories/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad story id %q", r.PathValue("id"))})
			return
		}
		snap := view.Snapshot()
		e, ok := snap.Story(story.ID(id))
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no story %d", id)})
			return
		}
		out := struct {
			Epoch uint64    `json:"epoch"`
			Story storyJSON `json:"story"`
		}{Epoch: snap.Epoch, Story: entryJSON(e, true)}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /entities/{e}", func(w http.ResponseWriter, r *http.Request) {
		ev, err := strconv.ParseInt(r.PathValue("e"), 10, 32)
		if err != nil || ev < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad entity %q", r.PathValue("e"))})
			return
		}
		snap := view.Snapshot()
		out := struct {
			Epoch   uint64      `json:"epoch"`
			Entity  int64       `json:"entity"`
			Stories []storyJSON `json:"stories"`
		}{Epoch: snap.Epoch, Entity: ev, Stories: []storyJSON{}}
		for _, e := range snap.Stories {
			if slices.Contains(e.Entities, vset.Vertex(ev)) {
				out.Stories = append(out.Stories, entryJSON(e, false))
			}
		}
		writeJSON(w, http.StatusOK, out)
	})
	return mux
}

// sameResponse requires the product and the reference to answer a GET with
// the same status, content type and body bytes, and returns the product's
// answer.
func sameResponse(t *testing.T, got, want http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	g, w := httptest.NewRecorder(), httptest.NewRecorder()
	got.ServeHTTP(g, httptest.NewRequest(http.MethodGet, path, nil))
	want.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if g.Code != w.Code || g.Header().Get("Content-Type") != w.Header().Get("Content-Type") || !bytes.Equal(g.Body.Bytes(), w.Body.Bytes()) {
		t.Fatalf("GET %s:\ngot  %d %q\n%s\nwant %d %q\n%s", path,
			g.Code, g.Header().Get("Content-Type"), g.Body.Bytes(), w.Code, w.Header().Get("Content-Type"), w.Body.Bytes())
	}
	return g
}

// readCoverage counts what the differential test compared.
type readCoverage struct {
	checks, fading, multiSub, truncatedTop int
}

// sameReads compares every read the snapshot can answer: top-k for k ∈ {0, 1,
// 10, the default, more than ranked}, every story and an unknown one, every
// entity and an unknown one.
func sameReads(t *testing.T, got, want http.Handler, snap *Snapshot, cov *readCoverage) {
	t.Helper()
	cov.checks++
	if len(snap.Ranked) > 10 {
		cov.truncatedTop++
	}
	for _, q := range []string{"", "?k=0", "?k=1", "?k=10", "?k=" + strconv.Itoa(len(snap.Ranked)+1)} {
		sameResponse(t, got, want, "/stories/top"+q)
	}
	var maxID story.ID
	for _, e := range snap.Stories {
		if e.Fading {
			cov.fading++
		}
		if len(e.Subgraphs) > 1 {
			cov.multiSub++
		}
		maxID = max(maxID, e.ID)
		sameResponse(t, got, want, fmt.Sprintf("/stories/%d", e.ID))
	}
	sameResponse(t, got, want, fmt.Sprintf("/stories/%d", maxID+1))
	var maxEntity vset.Vertex
	seen := map[vset.Vertex]bool{}
	for _, e := range snap.Stories {
		for _, v := range e.Entities {
			if !seen[v] {
				seen[v] = true
				maxEntity = max(maxEntity, v)
				sameResponse(t, got, want, fmt.Sprintf("/entities/%d", v))
			}
		}
	}
	sameResponse(t, got, want, fmt.Sprintf("/entities/%d", maxEntity+1))
}

// sseRecorder is the ResponseWriter of an /events handler under test: it
// keeps the stream and signals every Flush, which the handler issues once per
// frame.
type sseRecorder struct {
	header  http.Header
	flushes chan struct{}

	mu   sync.Mutex
	body bytes.Buffer
}

func (r *sseRecorder) Header() http.Header { return r.header }
func (r *sseRecorder) WriteHeader(int)     {}
func (r *sseRecorder) Flush()              { r.flushes <- struct{}{} }

func (r *sseRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Write(p)
}

func (r *sseRecorder) stream() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.String()
}

// TestWireMatchesEncodingJSON drives a builder through the planted story
// stream of BenchmarkSinkPlantedSteady with an /events subscriber attached,
// and compares the product against the encoding/json reference: every read
// response at every 97th boundary and at the end, and the whole SSE stream.
func TestWireMatchesEncodingJSON(t *testing.T) {
	trk, log := plantedSteady(t)
	b := NewBuilder(story.MustTracker(trk))
	hub := NewHub()
	srv := NewServer(b.View(), hub)
	ref := refHandler(b.View())

	var want strings.Builder
	want.WriteString(": connected epoch=0\n\n")
	published, others := 0, 0
	b.SetRecordSink(func(r story.Record) {
		want.WriteString(refFrame(r))
		published++
		if r.Other != 0 {
			others++
		}
		hub.Publish(r)
	})

	// Every boundary's records fit the subscription buffer (256), and the
	// test waits for each frame's flush, so the hub drops nothing.
	sse := &sseRecorder{header: http.Header{}, flushes: make(chan struct{}, 512)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleEvents(sse, httptest.NewRequest(http.MethodGet, "/events", nil).WithContext(ctx))
	}()
	defer func() {
		cancel()
		<-done
	}()
	<-sse.flushes // the connected comment: the subscription is live
	flushed := 0
	drain := func() {
		for ; flushed < published; flushed++ {
			<-sse.flushes
		}
	}

	var cov readCoverage
	for i, evs := range log.updates {
		for _, ev := range evs {
			b.Emit(ev)
		}
		b.EndUpdate()
		drain()
		if i%97 == 0 {
			sameReads(t, srv.Handler(), ref, b.View().Snapshot(), &cov)
		}
	}
	b.Close(uint64(len(log.updates)))
	drain()
	sameReads(t, srv.Handler(), ref, b.View().Snapshot(), &cov)

	if got, want := sse.stream(), want.String(); got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("SSE stream diverges at byte %d of %d:\ngot  %q\nwant %q", i, len(want), got[i:min(len(got), i+200)], want[i:min(len(want), i+200)])
	}
	if d := hub.dropped.Load(); d != 0 {
		t.Fatalf("the hub dropped %d records", d)
	}
	if cov.fading == 0 || cov.multiSub == 0 || cov.truncatedTop == 0 || others == 0 {
		t.Fatalf("coverage too weak: %+v, %d records, %d with a counterparty", cov, published, others)
	}
	t.Logf("%d snapshots compared (%d fading and %d multi-subgraph story reads), %d SSE frames", cov.checks, cov.fading, cov.multiSub, published)
}

// TestAppendFloatMatchesEncodingJSON compares appendFloat with json.Marshal on
// the values around the 'f'/'e' switch points, zeros, subnormals and the
// extremes, then on a randomized sweep across 1e-30..1e30 and over random bit
// patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, json.Marshal %s", f, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 6.5, 1.0 / 3,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1e-9, 1.5e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 1e100,
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.MaxFloat64, -math.MaxFloat64,
	} {
		check(f)
		check(-f)
	}
	rng := rand.New(rand.NewPCG(33, 1))
	for i := 0; i < 50_000; i++ {
		f := rng.Float64() * math.Pow(10, float64(rng.IntN(61)-30))
		if rng.IntN(2) == 0 {
			f = -f
		}
		check(f)
		if g := math.Float64frombits(rng.Uint64()); !math.IsInf(g, 0) && !math.IsNaN(g) {
			check(g)
		}
	}
}

// TestWireNonFiniteDensity: JSON has no token for a non-finite float, so a
// response that would hold one is answered 500 with encoding/json's error —
// what the reference answers through writeJSON — and never carries NaN or
// Inf as a value. Responses that do not render the bad value are unaffected.
func TestWireNonFiniteDensity(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		set := vset.New(1, 2, 3)
		view := NewView()
		view.publish(&Snapshot{
			Epoch: 4,
			Stories: []*Entry{
				{ID: 1, Entities: set, Density: bad, Subgraphs: []SubgraphRef{{Set: set, Density: bad}}, BornSeq: 1, LastSeq: 4},
				{ID: 2, Entities: vset.New(5, 6, 7), Density: 2, Subgraphs: []SubgraphRef{{Set: vset.New(5, 6, 7), Density: bad}}, BornSeq: 2, LastSeq: 3},
			},
			Ranked:        []Rank{{Story: 2, Density: 2}, {Story: 1, Density: bad}},
			LiveSubgraphs: 2,
		})
		srv, ref := NewServer(view, nil).Handler(), refHandler(view)
		for _, c := range []struct {
			path   string
			status int
		}{
			{"/stories/top?k=1", http.StatusOK}, // story 2's bad value is a subgraph's, not listed here
			{"/stories/top", http.StatusInternalServerError},
			{"/stories/1", http.StatusInternalServerError},
			{"/stories/2", http.StatusInternalServerError},
			{"/entities/1", http.StatusInternalServerError},
			{"/entities/5", http.StatusOK},
		} {
			if rec := sameResponse(t, srv, ref, c.path); rec.Code != c.status || !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("density %v, GET %s: %d %s, want %d and valid JSON", bad, c.path, rec.Code, rec.Body.Bytes(), c.status)
			}
		}
	}
}

// TestWirePoolDropsLargeBuffers: a buffer grown past maxPooledWire by one
// large response is not kept for the next one.
func TestWirePoolDropsLargeBuffers(t *testing.T) {
	w := getWire()
	w.b = append(w.b, make([]byte, maxPooledWire+1)...)
	putWire(w)
	if got := getWire(); cap(got.b) > maxPooledWire {
		t.Fatalf("the pool kept a %d-byte buffer", cap(got.b))
	}
}
