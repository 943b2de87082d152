package main

import (
	"io"
	"time"
)

// pacedReader is the open-loop document generator of serve-durable: an
// io.Reader over pre-generated document lines that releases document i only
// once its due time has come — free documents first (the warm-up), then one
// every period. A Read returns every line that is due by now (up to the
// buffer), so a pipeline that fell behind catches up the way a socket's
// receive buffer would let it; when nothing is due the Read waits, sleeping
// until 1 ms before the due time and spinning for the rest (the reading
// goroutine is the pipeline's own and is idle while it waits; on a shared VM
// a sleeping goroutine wakes about a millisecond late, so at 3000 documents
// per second the wait is all spin).
//
// Freshness is measured from dueNs(i), not from when the line was handed
// over: a stall delays the hand-over of later documents, and that wait counts.
type pacedReader struct {
	text    []byte
	lineEnd []uint32
	free    int   // documents released without pacing
	period  int64 // ns between due times of paced documents
	start   int64 // ns: due time of the first paced document; set by begin
	giveUp  int64 // ns: stop releasing documents after this (0: never)

	next   int // next document to release
	off    int // bytes of text already returned
	late   hist
	behind int64 // lateness of the last paced hand-over, ns
	waited int64 // total ns spent waiting for due times

	now  func() int64      // clock, ns (injected in tests)
	wait func(until int64) // blocks until now() ≥ until
}

func newPacedReader(in *docInput, free int, ratePerSecond float64) *pacedReader {
	return &pacedReader{
		text: in.Text, lineEnd: in.LineEnd, free: free, period: int64(1e9 / ratePerSecond),
		start: 1 << 62, now: nowNs, wait: sleepSpinUntil,
	}
}

// sleepSpinUntil sleeps until 1 ms before the deadline, then spins.
func sleepSpinUntil(until int64) {
	const spin = 1_000_000
	if d := until - nowNs() - spin; d > 0 {
		time.Sleep(time.Duration(d))
	}
	for nowNs() < until {
	}
}

// begin starts the paced phase: the first paced document is due at startNs.
func (p *pacedReader) begin(startNs, giveUpNs int64) { p.start, p.giveUp = startNs, giveUpNs }

// dueNs is when paced document i (0-based among the paced ones) is due.
func (p *pacedReader) dueNs(i int) int64 { return p.start + int64(i)*p.period }

// Read implements io.Reader.
func (p *pacedReader) Read(b []byte) (int, error) {
	if p.next >= len(p.lineEnd) && p.off >= len(p.text) {
		return 0, io.EOF
	}
	now := p.now()
	if p.off >= int(p.released()) {
		// Nothing released is left to hand over: release the next document,
		// waiting for its due time if it is a paced one.
		if p.next >= p.free {
			due := p.dueNs(p.next - p.free)
			if p.giveUp > 0 && max(now, due) > p.giveUp {
				p.next, p.off = len(p.lineEnd), len(p.text)
				return 0, io.EOF
			}
			if now < due {
				p.wait(due)
				p.waited += p.now() - now
				now = p.now()
			}
		}
		p.release(now)
		// … and with it everything else that is already due.
		for p.next < len(p.lineEnd) && p.next >= p.free && p.dueNs(p.next-p.free) <= now &&
			int(p.lineEnd[p.next])-p.off <= len(b) {
			p.release(now)
		}
	}
	n := copy(b, p.text[p.off:p.released()])
	p.off += n
	return n, nil
}

// released is the offset up to which text may be handed over.
func (p *pacedReader) released() uint32 {
	if p.next == 0 {
		return 0
	}
	return p.lineEnd[p.next-1]
}

func (p *pacedReader) release(now int64) {
	if p.next >= p.free {
		p.behind = now - p.dueNs(p.next-p.free)
		p.late.add(p.behind)
	}
	p.next++
}
