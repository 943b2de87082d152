package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"dyndens/internal/serve"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// serveTestHooks lets the CLI tests observe the bound address and trigger a
// shutdown without signals. Both are nil outside tests.
var (
	serveListenerReady func(addr net.Addr)
	serveShutdown      chan struct{}
)

// serveReadHeaderTimeout bounds how long a client may take to send its
// request line and headers; serveIdleTimeout how long a keep-alive connection
// may sit between requests.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// newHTTPServer is the story service's http.Server. A client that stalls
// inside its request head is disconnected after readHeader, and an idle
// keep-alive connection after serveIdleTimeout, so neither holds a connection
// and its goroutine forever. There is deliberately no WriteTimeout: /events
// is a long-lived SSE stream.
func newHTTPServer(h http.Handler, readHeader time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: serveIdleTimeout}
}

// cmdServe is the long-lived story service: it ingests a document stream
// (file, stdin, or the synthetic generator) through the aggregation → engine
// → story-tracking pipeline while serving the current story table over HTTP
// the whole time. The writer publishes an immutable snapshot of the table at
// every update boundary that changes it, so concurrent readers always see an
// internally consistent state and never block ingestion.
//
// Endpoints: /healthz, /stats, /stories/top?k=, /stories/{id},
// /entities/{e}, and /events (SSE lifecycle stream). By default the server
// keeps serving the final table after the input is exhausted; -exit-after-ingest
// shuts down once ingestion (plus -linger) completes, for scripted runs.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("dyndens serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address (host:port; port 0 picks a free one)")
	input := fs.String("input", "", "document stream path (- for stdin); empty = generate with -synth flags")
	open := docFlags(fs, input)
	quiet := fs.Bool("quiet", false, "suppress the streaming lifecycle log on stdout")
	exitAfter := fs.Bool("exit-after-ingest", false, "shut down once the input is exhausted instead of serving the final table indefinitely")
	linger := fs.Duration("linger", 0, "with -exit-after-ingest: keep serving this long after ingestion completes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectPositionalArgs(fs, "dyndens serve"); err != nil {
		return err
	}
	if isSet(fs, "linger") && !*exitAfter {
		return fmt.Errorf("serve: -linger requires -exit-after-ingest (without it the server serves the final table until stopped)")
	}
	p, err := open("serve", "serve", *input == "")
	if err != nil {
		return err
	}

	// A recovered serving table needs the restored engine's output densities
	// before the first snapshot publishes.
	var bld *serve.Builder
	if p.restored != nil && p.restored.Tracker != nil {
		bld = serve.NewBuilderFromState(p.tracker, p.eng.OutputDense())
	} else {
		bld = serve.NewBuilder(p.tracker)
	}
	// Captures sync the builder first, so the serving view and the captured
	// tracker fold the same boundary.
	p.sync = bld.Sync
	hub := serve.NewHub()
	if *quiet {
		bld.SetRecordSink(hub.Publish)
	} else {
		bld.SetRecordSink(func(r story.Record) {
			fmt.Println(r)
			hub.Publish(r)
		})
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		p.close()
		return err
	}
	fmt.Printf("serving on http://%s\n", ln.Addr())
	if serveListenerReady != nil {
		serveListenerReady(ln.Addr())
	}

	// ingestState feeds the /stats "writer" block; the final summary is
	// attached once ingestion completes.
	type ingestSummary struct {
		Complete         bool    `json:"complete"`
		Updates          int     `json:"updates,omitempty"`
		Ticks            int     `json:"ticks,omitempty"`
		UpdatesPerSecond float64 `json:"updates_per_second,omitempty"`
	}
	var ingestState atomic.Pointer[ingestSummary]
	ingestState.Store(&ingestSummary{})

	srv := serve.NewServer(bld.View(), hub)
	srv.Extra = func() any { return ingestState.Load() }
	httpSrv := newHTTPServer(srv.Handler(), serveReadHeaderTimeout)
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(ln) }()

	ctx, stopSignals := signalContext()
	defer stopSignals()

	// The writer goroutine owns the whole pipeline, the WAL store included
	// (Close must happen on the producer goroutine); the builder publishes
	// snapshots at update boundaries, so the HTTP readers and the SSE hub
	// observe the stream live. The final table is reported only for an
	// ingest that ran to the end.
	ingestDone := make(chan error, 1)
	go func() {
		err := p.drive(ctx, bld, p.batch, func(st stream.ReplayStats, interrupted bool) {
			if interrupted {
				return
			}
			ingestState.Store(&ingestSummary{Complete: true, Updates: st.Updates, Ticks: st.Ticks, UpdatesPerSecond: st.UpdatesPerSecond()})
			p.report(st)
		})
		p.close()
		ingestDone <- err
	}()

	shutdown := func() error {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(sctx)
	}

	var ingestErr error
	select {
	case <-ctx.Done():
		// Interrupted mid-ingest: the boundary hook stops the writer at the
		// next drained boundary (cutting a final checkpoint when persisting).
		// Wait for it — bounded, in case the input stalls — then stop serving.
		select {
		case ingestErr = <-ingestDone:
		case <-time.After(5 * time.Second):
			fmt.Fprintln(os.Stderr, "serve: writer did not reach a stop boundary within 5s; shutting down without it")
		}
		if err := shutdown(); err != nil {
			return err
		}
		return ingestErr
	case <-serveShutdown:
		return shutdown()
	case ingestErr = <-ingestDone:
		if ingestErr != nil {
			shutdown()
			return ingestErr
		}
	}

	if *exitAfter {
		if *linger > 0 {
			select {
			case <-time.After(*linger):
			case <-ctx.Done():
			}
		}
		return shutdown()
	}
	fmt.Println("ingestion complete; serving the final table (interrupt to stop)")
	select {
	case <-ctx.Done():
	case <-serveShutdown:
	case err := <-httpDone:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	return shutdown()
}
