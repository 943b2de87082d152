package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// Every insertion of the raw stream is cancelled exactly: after the stream
// and its drain the engine's graph has no edges left (a float residue would
// keep the edge, and the graph would only ever grow).
func TestRawStreamCancelsExactly(t *testing.T) {
	updates, drain := genRaw(7, 5*rawWindow)
	eng, err := newRawEngine()
	if err != nil {
		t.Fatal(err)
	}
	ins, sum := 0, 0.0
	for _, u := range updates {
		if u.Delta > 0 {
			ins++
			sum += u.Delta
			if k := u.Delta * 8; k != math.Trunc(k) || k < 1 || k > rawDeltaSteps {
				t.Fatalf("delta %v is not k/8 with k in 1..%d", u.Delta, rawDeltaSteps)
			}
		}
		eng.process(u)
	}
	if ins != 5*rawWindow || len(updates) != 2*ins-rawWindow || len(drain) != rawWindow {
		t.Fatalf("%d insertions in %d updates, drain %d", ins, len(updates), len(drain))
	}
	if mean := sum / float64(ins); mean < 1.05 || mean > 1.2 {
		t.Errorf("mean delta %.3f, want ≈ 1.125", mean)
	}
	if eng.edges() == 0 {
		t.Fatal("no edges before the drain: the window is not sliding")
	}
	for _, u := range drain {
		eng.process(u)
	}
	if n := eng.edges(); n != 0 {
		t.Errorf("%d edges left after the drain", n)
	}
	c := eng.counts()
	if c.IndexError != "" || c.Became-c.Ceased != c.OutputDense || c.OutputDense != 0 {
		t.Errorf("after the drain: index %q, became−ceased %d, output-dense %d", c.IndexError, c.Became-c.Ceased, c.OutputDense)
	}
}

// The same seed gives the same input, another seed another one, and a longer
// stream of the same seed extends the shorter one.
func TestGeneratorsAreSeeded(t *testing.T) {
	a, _ := genRaw(3, 4000)
	b, _ := genRaw(3, 4000)
	c, _ := genRaw(4, 4000)
	long, _ := genRaw(3, 6000)
	if !reflect.DeepEqual(a, b) {
		t.Error("raw: same seed, different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("raw: different seeds, same stream")
	}
	if !reflect.DeepEqual(a, long[:len(a)]) {
		t.Error("raw: the longer stream does not extend the shorter one")
	}
	da, db, dc := genDocs(3, 5000, steadyGen), genDocs(3, 5000, steadyGen), genDocs(4, 5000, steadyGen)
	dlong := genDocs(3, 8000, steadyGen)
	if !bytes.Equal(da.Text, db.Text) {
		t.Error("docs: same seed, different streams")
	}
	if bytes.Equal(da.Text, dc.Text) {
		t.Error("docs: different seeds, same stream")
	}
	if !bytes.Equal(da.Text, dlong.Text[:len(da.Text)]) {
		t.Error("docs: the longer stream does not extend the shorter one")
	}
}

// The document stream is a birth–death process: a constant number of planted
// stories alive, disjoint entity sets, and the planted share of documents.
func TestDocStreamShape(t *testing.T) {
	const n = 40_000
	in := genDocs(11, n, steadyGen)
	if len(in.LineEnd) != n || int(in.LineEnd[n-1]) != len(in.Text) {
		t.Fatalf("%d documents, text %d bytes, last line ends at %d", len(in.LineEnd), len(in.Text), in.LineEnd[n-1])
	}
	seen := map[int32]bool{}
	for _, p := range in.Planted {
		if len(p.Entities) < steadyGen.MinSize || len(p.Entities) > steadyGen.MaxSize {
			t.Fatalf("story of %d entities", len(p.Entities))
		}
		for _, e := range p.Entities {
			if seen[e] || e < int32(steadyGen.BgEntities) {
				t.Fatalf("entity %d shared between stories or with the background", e)
			}
			seen[e] = true
		}
	}
	for _, at := range []int{0, n / 3, n - 1} {
		alive := 0
		for _, p := range in.Planted {
			if p.Start <= at && at < p.End {
				alive++
			}
		}
		if alive != steadyGen.Active {
			t.Errorf("%d stories alive at document %d, want %d", alive, at, steadyGen.Active)
		}
	}
	births := len(in.Planted) - steadyGen.Active
	if want := n / (int(steadyGen.MeanLife) / steadyGen.Active); births < want-1 || births > want {
		t.Errorf("%d births after the start, want ≈ %d", births, want)
	}
}
