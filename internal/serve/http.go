package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dyndens/internal/story"
	"dyndens/internal/vset"
)

// Hub fans lifecycle records out to SSE subscribers. Publishing never
// blocks the writer: a subscriber whose buffer is full loses the record (and
// the hub counts the drop) rather than stalling ingestion.
type Hub struct {
	mu   sync.Mutex
	subs map[uint64]chan story.Record
	next uint64

	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[uint64]chan story.Record)}
}

// Publish delivers a record to every subscriber, non-blocking.
func (h *Hub) Publish(r story.Record) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		select {
		case ch <- r:
			h.delivered.Add(1)
		default:
			h.dropped.Add(1)
		}
	}
}

// Subscribe registers a subscriber with the given channel buffer and returns
// its id and channel. The channel is closed by Unsubscribe.
func (h *Hub) Subscribe(buf int) (uint64, <-chan story.Record) {
	if buf < 1 {
		buf = 64
	}
	ch := make(chan story.Record, buf)
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.next
	h.next++
	h.subs[id] = ch
	return id, ch
}

// Unsubscribe removes a subscriber and closes its channel.
func (h *Hub) Unsubscribe(id uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ch, ok := h.subs[id]; ok {
		delete(h.subs, id)
		close(ch)
	}
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Server exposes a View over HTTP. All endpoints are read-only and serve
// from whichever immutable snapshot is current when the request arrives:
//
//	GET /healthz          liveness probe
//	GET /stats            view + SSE counters (JSON)
//	GET /stories/top?k=N  the k highest-density live stories, ranked (default 10)
//	GET /stories/{id}     one story with its subgraphs
//	GET /entities/{e}     stories whose entity set contains entity e
//	GET /events           SSE stream of lifecycle records as they happen
//
// Responses carry the snapshot epoch, so a client can correlate consecutive
// reads: two responses with equal epochs describe the identical table.
type Server struct {
	view    *View
	hub     *Hub
	mux     *http.ServeMux
	started time.Time

	// Extra is an optional callback merged into /stats output under
	// "writer" — the serve CLI reports ingestion progress through it.
	Extra func() any
}

// NewServer builds a Server over a view. hub may be nil, in which case
// /events reports 404.
func NewServer(view *View, hub *Hub) *Server {
	s := &Server{view: view, hub: hub, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /stories/top", s.handleTop)
	s.mux.HandleFunc("GET /stories/{id}", s.handleStory)
	s.mux.HandleFunc("GET /entities/{e}", s.handleEntity)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// storyJSON is the wire form of an Entry.
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

// subgraphJSON is the wire form of a SubgraphRef: here, and only here, the
// vertex set becomes its canonical key string.
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	type statsJSON struct {
		ViewStats
		UptimeMS     int64  `json:"uptime_ms"`
		SSESubs      int    `json:"sse_subscribers"`
		SSEDelivered uint64 `json:"sse_delivered"`
		SSEDropped   uint64 `json:"sse_dropped"`
		Writer       any    `json:"writer,omitempty"`
	}
	out := statsJSON{
		ViewStats: s.view.Stats(),
		UptimeMS:  time.Since(s.started).Milliseconds(),
	}
	if s.hub != nil {
		out.SSESubs = s.hub.Subscribers()
		out.SSEDelivered = s.hub.delivered.Load()
		out.SSEDropped = s.hub.dropped.Load()
	}
	if s.Extra != nil {
		out.Writer = s.Extra()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad k %q", q)})
			return
		}
		k = n
	}
	snap := s.view.Snapshot()
	ranked := snap.Top(k)
	out := struct {
		Epoch   uint64      `json:"epoch"`
		Ranked  int         `json:"ranked"`
		Stories []storyJSON `json:"stories"`
	}{Epoch: snap.Epoch, Ranked: len(snap.Ranked), Stories: make([]storyJSON, 0, len(ranked))}
	for _, rk := range ranked {
		e, _ := snap.Story(rk.Story) // every ranked story is in the table
		out.Stories = append(out.Stories, entryJSON(e, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStory(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad story id %q", r.PathValue("id"))})
		return
	}
	snap := s.view.Snapshot()
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
}

func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	ev, err := strconv.ParseInt(r.PathValue("e"), 10, 32)
	if err != nil || ev < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad entity %q", r.PathValue("e"))})
		return
	}
	snap := s.view.Snapshot()
	ids := snap.ByEntity[vset.Vertex(ev)]
	out := struct {
		Epoch   uint64      `json:"epoch"`
		Entity  int64       `json:"entity"`
		Stories []storyJSON `json:"stories"`
	}{Epoch: snap.Epoch, Entity: ev, Stories: make([]storyJSON, 0, len(ids))}
	for _, id := range ids {
		e, _ := snap.Story(id) // every posted story is in the table
		out.Stories = append(out.Stories, entryJSON(e, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// recordJSON is the SSE wire form of a lifecycle record.
type recordJSON struct {
	Seq      uint64   `json:"seq"`
	Kind     string   `json:"kind"`
	Story    story.ID `json:"story"`
	Other    story.ID `json:"other,omitempty"`
	Entities []int32  `json:"entities"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil {
		http.NotFound(w, r)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	id, ch := s.hub.Subscribe(256)
	defer s.hub.Unsubscribe(id)
	fmt.Fprintf(w, ": connected epoch=%d\n\n", s.view.Snapshot().Epoch)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case rec, open := <-ch:
			if !open {
				return
			}
			ents := make([]int32, len(rec.Entities))
			for i, v := range rec.Entities {
				ents[i] = int32(v)
			}
			data, err := json.Marshal(recordJSON{
				Seq: rec.Seq, Kind: rec.Kind.String(), Story: rec.Story, Other: rec.Other, Entities: ents,
			})
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", rec.Kind, data)
			fl.Flush()
		}
	}
}
