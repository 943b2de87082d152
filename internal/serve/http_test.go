package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// testBuilder hand-drives a builder to a small deterministic table: one
// 3-entity story at density 3 and one 2-entity story at density 5.
func testBuilder(t *testing.T) *Builder {
	t.Helper()
	b := NewBuilder(story.MustTracker(story.Config{Grace: 10}))
	b.Emit(core.Event{Kind: core.BecameOutputDense, Set: vset.New(1, 2, 3), Density: 3.0})
	b.Emit(core.Event{Kind: core.BecameOutputDense, Set: vset.New(10, 11), Density: 5.0})
	b.EndUpdate()
	if err := validateSnapshot(b.View().Snapshot()); err != nil {
		t.Fatal(err)
	}
	return b
}

func getJSON(t *testing.T, srv *httptest.Server, path string, status int, out any) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	b := testBuilder(t)
	srv := httptest.NewServer(NewServer(b.View(), NewHub()).Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	var top struct {
		Epoch   uint64 `json:"epoch"`
		Ranked  int    `json:"ranked"`
		Stories []struct {
			ID       story.ID `json:"id"`
			Density  float64  `json:"density"`
			Entities []int32  `json:"entities"`
			NumSubs  int      `json:"subgraph_count"`
			Fading   bool     `json:"fading"`
		} `json:"stories"`
	}
	getJSON(t, srv, "/stories/top?k=1", http.StatusOK, &top)
	if top.Epoch != 1 || top.Ranked != 2 || len(top.Stories) != 1 {
		t.Fatalf("top: %+v", top)
	}
	if top.Stories[0].Density != 5.0 || len(top.Stories[0].Entities) != 2 {
		t.Fatalf("top story should be the density-5 pair, got %+v", top.Stories[0])
	}
	bestID := top.Stories[0].ID

	getJSON(t, srv, "/stories/top", http.StatusOK, &top)
	if len(top.Stories) != 2 {
		t.Fatalf("default top should rank both stories, got %d", len(top.Stories))
	}
	if top.Stories[0].Density < top.Stories[1].Density {
		t.Fatalf("top unordered: %+v", top.Stories)
	}
	getJSON(t, srv, "/stories/top?k=junk", http.StatusBadRequest, nil)

	var one struct {
		Epoch uint64 `json:"epoch"`
		Story struct {
			ID        story.ID      `json:"id"`
			Subgraphs []SubgraphRef `json:"subgraphs"`
		} `json:"story"`
	}
	getJSON(t, srv, fmt.Sprintf("/stories/%d", bestID), http.StatusOK, &one)
	if one.Story.ID != bestID || len(one.Story.Subgraphs) != 1 || one.Story.Subgraphs[0].Density != 5.0 {
		t.Fatalf("story detail: %+v", one.Story)
	}
	getJSON(t, srv, "/stories/999", http.StatusNotFound, nil)
	getJSON(t, srv, "/stories/junk", http.StatusBadRequest, nil)

	var ent struct {
		Entity  int64 `json:"entity"`
		Stories []struct {
			ID story.ID `json:"id"`
		} `json:"stories"`
	}
	getJSON(t, srv, "/entities/10", http.StatusOK, &ent)
	if len(ent.Stories) != 1 || ent.Stories[0].ID != bestID {
		t.Fatalf("entity lookup: %+v", ent)
	}
	getJSON(t, srv, "/entities/7777", http.StatusOK, &ent)
	if len(ent.Stories) != 0 {
		t.Fatalf("unknown entity should match no stories: %+v", ent)
	}
	getJSON(t, srv, "/entities/junk", http.StatusBadRequest, nil)

	var stats struct {
		Epoch   uint64 `json:"epoch"`
		Stories int    `json:"stories"`
		Writer  any    `json:"writer"`
	}
	getJSON(t, srv, "/stats", http.StatusOK, &stats)
	if stats.Epoch != 1 || stats.Stories != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestHTTPStatsWriterExtra(t *testing.T) {
	b := testBuilder(t)
	s := NewServer(b.View(), nil)
	s.Extra = func() any { return map[string]int{"ingested": 42} }
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var stats struct {
		Writer map[string]int `json:"writer"`
	}
	getJSON(t, srv, "/stats", http.StatusOK, &stats)
	if stats.Writer["ingested"] != 42 {
		t.Fatalf("writer extra missing: %+v", stats)
	}
	// No hub: the SSE endpoint is absent.
	getJSON(t, srv, "/events", http.StatusNotFound, nil)
}

// TestHTTPStatsUnencodableExtra: a /stats value encoding/json cannot encode
// is answered 500 with the encoder's error as a JSON body, not as a 200 with
// an empty or truncated one.
func TestHTTPStatsUnencodableExtra(t *testing.T) {
	b := testBuilder(t)
	for _, extra := range []any{math.Inf(1), make(chan int)} {
		s := NewServer(b.View(), nil)
		s.Extra = func() any { return extra }
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || !strings.Contains(body.Error, "unsupported") {
			t.Errorf("Extra %T: %d %q (%v), want 500 with the encoder's error", extra, rec.Code, rec.Body.Bytes(), err)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Extra %T: content type %q", extra, ct)
		}
	}
}

// TestTopKBounds: k beyond int or below 0 is a 400 with the reference's error
// body; k beyond the ranking returns the whole ranking (its allocations are
// pinned in TestReadHandlerAllocs).
func TestTopKBounds(t *testing.T) {
	b := testBuilder(t)
	srv, ref := NewServer(b.View(), nil).Handler(), refHandler(b.View())
	for _, q := range []string{"99999999999999999999", "-1", "junk", "1e3", "%22%E2%98%83%00"} {
		if rec := sameResponse(t, srv, ref, "/stories/top?k="+q); rec.Code != http.StatusBadRequest {
			t.Errorf("k=%s: %d, want 400", q, rec.Code)
		}
	}
	for _, path := range []string{"/stories/junk", "/stories/-1", "/entities/-1", "/entities/2147483648", "/entities/%22x"} {
		sameResponse(t, srv, ref, path)
	}
	rec := sameResponse(t, srv, ref, "/stories/top?k=99999999999")
	var top struct {
		Ranked  int               `json:"ranked"`
		Stories []json.RawMessage `json:"stories"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &top); rec.Code != http.StatusOK || err != nil || top.Ranked != 2 || len(top.Stories) != 2 {
		t.Fatalf("k beyond the ranking: %d %s (%v), want both ranked stories", rec.Code, rec.Body.Bytes(), err)
	}
}

// TestSSEStreamsRecords subscribes to /events and checks a lifecycle record
// produced while the subscription is live arrives as an SSE frame.
func TestSSEStreamsRecords(t *testing.T) {
	b := testBuilder(t)
	hub := NewHub()
	b.SetRecordSink(hub.Publish)
	srv := httptest.NewServer(NewServer(b.View(), hub).Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	// The handler sends a comment first; wait for it so the subscription is
	// registered before the writer produces the record.
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("expected SSE comment, got %q, %v", line, err)
	}
	for hub.Subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}

	// A fresh, non-overlapping subgraph births a new story → one Born record.
	b.Emit(core.Event{Kind: core.BecameOutputDense, Set: vset.New(20, 21, 22), Density: 7.0})
	b.EndUpdate()

	deadline := time.After(5 * time.Second)
	got := make(chan string, 1)
	go func() {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "data: ") {
				got <- strings.TrimSpace(strings.TrimPrefix(line, "data: "))
				return
			}
		}
	}()
	select {
	case data := <-got:
		var rec struct {
			Seq      uint64  `json:"seq"`
			Kind     string  `json:"kind"`
			Entities []int32 `json:"entities"`
		}
		if err := json.Unmarshal([]byte(data), &rec); err != nil {
			t.Fatalf("bad SSE payload %q: %v", data, err)
		}
		if rec.Kind != "born" || rec.Seq != 2 || len(rec.Entities) != 3 {
			t.Fatalf("unexpected record %+v", rec)
		}
	case <-deadline:
		t.Fatal("no SSE record within 5s")
	}
}

func TestHubNonBlockingPublish(t *testing.T) {
	hub := NewHub()
	id, ch := hub.Subscribe(1)
	r := story.Record{Seq: 1, Kind: story.Born, Story: 1}
	hub.Publish(r) // fills the buffer
	hub.Publish(r) // must not block; counted as a drop
	if d := hub.dropped.Load(); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if d := hub.delivered.Load(); d != 1 {
		t.Fatalf("delivered = %d, want 1", d)
	}
	hub.Unsubscribe(id)
	if _, open := <-ch; !open {
		// first buffered record still readable, then closed
	}
	if _, open := <-ch; open {
		t.Fatal("channel should be closed after Unsubscribe")
	}
	hub.Publish(r) // no subscribers: no-op
	if hub.Subscribers() != 0 {
		t.Fatal("subscriber count should be 0")
	}
}
