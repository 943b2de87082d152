package serve

import (
	"bytes"
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

// writeJSON renders v with encoding/json, indented as the read endpoints are,
// and sends it with the given status — the path of /stats and of error bodies,
// which carry arbitrary values and client-supplied strings. A value that
// cannot be encoded (a non-finite float, a channel) is answered with 500 and
// the encoder's error, never with the status and a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(buf.Bytes()) // a failed write means the client has gone; there is no one to tell
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
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad k " + strconv.Quote(q)})
			return
		}
		k = n
	}
	out := getWire()
	defer putWire(out)
	out.top(s.view.Snapshot(), k)
	writeWire(w, out)
}

func (s *Server) handleStory(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad story id " + strconv.Quote(r.PathValue("id"))})
		return
	}
	snap := s.view.Snapshot()
	e, ok := snap.Story(story.ID(id))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no story " + strconv.FormatUint(id, 10)})
		return
	}
	out := getWire()
	defer putWire(out)
	out.detail(snap, e)
	writeWire(w, out)
}

func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	ev, err := strconv.ParseInt(r.PathValue("e"), 10, 32)
	if err != nil || ev < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad entity " + strconv.Quote(r.PathValue("e"))})
		return
	}
	out := getWire()
	defer putWire(out)
	out.entity(s.view.Snapshot(), vset.Vertex(ev))
	writeWire(w, out)
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
	// One buffer per connection: each frame is rendered into it and sent
	// in one Write.
	var frame wire
	frame.b = append(frame.b, ": connected epoch="...)
	frame.b = strconv.AppendUint(frame.b, s.view.Snapshot().Epoch, 10)
	frame.b = append(frame.b, "\n\n"...)
	w.Write(frame.b)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case rec, open := <-ch:
			if !open {
				return
			}
			frame.record(rec)
			w.Write(frame.b)
			fl.Flush()
		}
	}
}
