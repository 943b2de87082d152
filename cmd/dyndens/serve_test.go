package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeCommandSmoke boots the full serve pipeline on an ephemeral port,
// queries every read endpoint while the server is live, and shuts it down
// through the test hook. The ingest is tiny, so by the time the listener
// address is delivered the table is (or is about to be) final; snapshot
// consistency under a concurrently-writing ingest is pinned much harder by
// internal/serve's race test.
func TestServeCommandSmoke(t *testing.T) {
	for _, shards := range []string{"0", "2"} {
		t.Run("shards="+shards, func(t *testing.T) {
			addrCh := make(chan net.Addr, 1)
			serveListenerReady = func(a net.Addr) { addrCh <- a }
			serveShutdown = make(chan struct{})
			defer func() { serveListenerReady, serveShutdown = nil, nil }()

			done := make(chan error, 1)
			var out string
			go func() {
				var err error
				out = captureStdout(t, func() error {
					err = cmdServe([]string{"-addr", "127.0.0.1:0", "-docs", "120", "-quiet", "-shards", shards})
					return nil
				})
				done <- err
			}()

			var addr net.Addr
			select {
			case addr = <-addrCh:
			case <-time.After(10 * time.Second):
				t.Fatal("server never bound a listener")
			}
			base := "http://" + addr.String()

			// The writer runs concurrently; wait until it reports completion
			// so the endpoint assertions see the final table.
			deadline := time.Now().Add(10 * time.Second)
			for {
				var stats struct {
					Stories int `json:"stories"`
					Writer  struct {
						Complete bool `json:"complete"`
						Updates  int  `json:"updates"`
					} `json:"writer"`
				}
				httpGetJSON(t, base+"/stats", &stats)
				if stats.Writer.Complete {
					if stats.Writer.Updates == 0 {
						t.Error("writer reported 0 updates ingested")
					}
					if stats.Stories == 0 {
						t.Error("no stories in the served table")
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("ingestion never completed")
				}
				time.Sleep(5 * time.Millisecond)
			}

			var top struct {
				Ranked  int `json:"ranked"`
				Stories []struct {
					ID      int     `json:"id"`
					Density float64 `json:"density"`
				} `json:"stories"`
			}
			httpGetJSON(t, base+"/stories/top?k=3", &top)
			if len(top.Stories) == 0 {
				t.Fatal("top-k returned no stories")
			}
			for i := 1; i < len(top.Stories); i++ {
				if top.Stories[i].Density > top.Stories[i-1].Density {
					t.Fatalf("top-k unordered: %+v", top.Stories)
				}
			}

			var one struct {
				Story struct {
					ID       int     `json:"id"`
					Entities []int32 `json:"entities"`
				} `json:"story"`
			}
			httpGetJSON(t, fmt.Sprintf("%s/stories/%d", base, top.Stories[0].ID), &one)
			if one.Story.ID != top.Stories[0].ID || len(one.Story.Entities) == 0 {
				t.Fatalf("story detail: %+v", one.Story)
			}
			var ent struct {
				Stories []struct {
					ID int `json:"id"`
				} `json:"stories"`
			}
			httpGetJSON(t, fmt.Sprintf("%s/entities/%d", base, one.Story.Entities[0]), &ent)
			found := false
			for _, s := range ent.Stories {
				found = found || s.ID == one.Story.ID
			}
			if !found {
				t.Fatalf("entity %d postings %v missing story %d", one.Story.Entities[0], ent, one.Story.ID)
			}

			resp, err := http.Get(base + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz: %d", resp.StatusCode)
			}

			close(serveShutdown)
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("cmdServe: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cmdServe did not shut down")
			}
			if !strings.Contains(out, "serving on http://") {
				t.Errorf("missing listener banner in output:\n%s", out)
			}
			if !strings.Contains(out, "stories: born=") {
				t.Errorf("missing final story summary in output:\n%s", out)
			}
		})
	}
}

func httpGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestServeDropsStalledRequestHead pins the server's read-header timeout: a
// client that opens a connection and never finishes its request line is
// disconnected instead of holding the connection forever.
func TestServeDropsStalledRequestHead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler(), 50*time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /stats HT")); err != nil {
		t.Fatal(err)
	}
	// The server hangs up (possibly after a 408); without the timeout this
	// read would block until the test's own deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [512]byte
	for {
		if _, err := conn.Read(buf[:]); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("server kept a connection whose request line never completed")
			}
			return // closed by the server
		}
	}
}
