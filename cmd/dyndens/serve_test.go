package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
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

// TestBenchServeBlock pins the -serve-readers integration: the JSON output
// gains a serve block with live read counters, in both the single-threaded
// and sharded drivers, for both -docs and raw workloads.
func TestBenchServeBlock(t *testing.T) {
	for _, args := range [][]string{
		{"-docs", "-vertices", "30", "-updates", "150", "-T", "6.5", "-nmax", "4"},
		{"-vertices", "40", "-updates", "300"},
		{"-vertices", "40", "-updates", "300", "-shards", "2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			out := captureStdout(t, func() error {
				return cmdBench(append(args, "-serve-readers", "2", "-serve-k", "3", "-json", path))
			})
			if !strings.Contains(out, "serve:  readers=2 k=3") {
				t.Errorf("missing serve summary line in output:\n%s", out)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Serve *struct {
					Readers int     `json:"readers"`
					TopK    int     `json:"top_k"`
					Reads   uint64  `json:"reads"`
					ReadQPS float64 `json:"read_qps"`
					P50Ns   int64   `json:"p50_ns"`
					P99Ns   int64   `json:"p99_ns"`
					Epochs  uint64  `json:"epochs_published"`
				} `json:"serve"`
			}
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if got.Serve == nil {
				t.Fatal("no serve block in bench JSON")
			}
			s := got.Serve
			if s.Readers != 2 || s.TopK != 3 {
				t.Errorf("serve config not echoed: %+v", s)
			}
			if s.Reads == 0 || s.ReadQPS <= 0 {
				t.Errorf("serve readers did no work: %+v", s)
			}
			if s.P50Ns <= 0 || s.P50Ns > s.P99Ns {
				t.Errorf("serve percentiles implausible: %+v", s)
			}
			if s.Epochs == 0 {
				t.Errorf("view never published an epoch: %+v", s)
			}
		})
	}
	if err := cmdBench([]string{"-serve-readers", "1", "-scale", "0,2"}); err == nil ||
		!strings.Contains(err.Error(), "-scale is incompatible") {
		t.Fatalf("want -scale incompatibility error, got %v", err)
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
