package main

import (
	"io"
	"testing"
)

// fakeClock is an injected clock: wait advances it to the deadline.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64       { return c.t }
func (c *fakeClock) wait(until int64) { c.t = max(c.t, until) }

func pacedInput(n int) *docInput {
	in := &docInput{}
	for i := 0; i < n; i++ {
		in.Text = append(in.Text, byte('a'+i%26), '\n')
		in.LineEnd = append(in.LineEnd, uint32(len(in.Text)))
	}
	return in
}

// Free documents come out at once; paced ones one per period, stamped with
// their due time, each Read waiting exactly until the next one is due.
func TestPacedReaderSchedule(t *testing.T) {
	clk := &fakeClock{t: 500}
	p := newPacedReader(pacedInput(6), 2, 1e6) // period 1000 ns
	p.now, p.wait = clk.now, clk.wait
	buf := make([]byte, 64)
	for i := 0; i < 2; i++ { // free
		if n, err := p.Read(buf); err != nil || n != 2 || clk.t != 500 {
			t.Fatalf("free read %d: n=%d err=%v t=%d", i, n, err, clk.t)
		}
	}
	p.begin(10_000, 0)
	for i := 0; i < 4; i++ {
		n, err := p.Read(buf)
		due := int64(10_000 + 1000*i)
		if err != nil || n != 2 || clk.t != due || p.dueNs(i) != due {
			t.Fatalf("paced read %d: n=%d err=%v t=%d due=%d", i, n, err, clk.t, p.dueNs(i))
		}
	}
	if _, err := p.Read(buf); err != io.EOF {
		t.Fatalf("after the last document: %v, want EOF", err)
	}
	if p.late.n != 4 || p.late.max != 0 || p.waited != 9_500+3*1000 {
		t.Errorf("lateness samples=%d max=%d waited=%d", p.late.n, p.late.max, p.waited)
	}
}

// A reader that comes back late gets every document that is due by then in
// one Read, and the lateness of each is accounted from ITS due time.
func TestPacedReaderLateness(t *testing.T) {
	clk := &fakeClock{}
	p := newPacedReader(pacedInput(10), 0, 1e6)
	p.now, p.wait = clk.now, clk.wait
	p.begin(0, 0)
	buf := make([]byte, 64)
	if n, _ := p.Read(buf); n != 2 { // document 0, due at 0, on time
		t.Fatalf("first read n=%d", n)
	}
	clk.t = 3500 // the pipeline stalled: documents 1, 2, 3 are due
	if n, _ := p.Read(buf); n != 6 {
		t.Fatalf("catch-up read n=%d, want 3 documents", n)
	}
	if p.behind != 500 || p.late.max != 2500 || p.late.n != 4 {
		t.Errorf("behind=%d max late=%d samples=%d, want 500 2500 4", p.behind, p.late.max, p.late.n)
	}
	// A small buffer splits a release; nothing is lost or duplicated.
	small := make([]byte, 1)
	var got []byte
	for {
		n, err := p.Read(small)
		got = append(got, small[:n]...)
		if err == io.EOF {
			break
		}
	}
	if string(got) != "e\nf\ng\nh\ni\nj\n" {
		t.Errorf("remaining text %q", got)
	}
	// Past the give-up time the generator stops releasing documents.
	q := newPacedReader(pacedInput(5), 0, 1e6)
	clk2 := &fakeClock{}
	q.now, q.wait = clk2.now, clk2.wait
	q.begin(0, 1500)
	reads := 0
	for {
		if _, err := q.Read(buf); err == io.EOF {
			break
		}
		reads++
	}
	if reads != 2 {
		t.Errorf("released %d documents before giving up at 1500 ns, want 2", reads)
	}
}
