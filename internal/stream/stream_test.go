package stream

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dyndens/internal/core"
)

func TestFileSourceParsesEdgeList(t *testing.T) {
	input := `# recorded stream
1 2 0.5

2 3 -1.25
# trailing comment
10 11 3
`
	src := NewReaderSource("test", strings.NewReader(input))
	got, err := drainUpdates(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Update{
		{A: 1, B: 2, Delta: 0.5},
		{A: 2, B: 3, Delta: -1.25},
		{A: 10, B: 11, Delta: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d updates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("update %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := src.NextBatch(); !errors.Is(err, io.EOF) {
		t.Fatalf("NextBatch after drain = %v, want io.EOF", err)
	}
}

// drainUpdates reads every remaining batch of src and concatenates the
// updates; an error other than io.EOF is returned with the updates read so
// far.
func drainUpdates(src BatchSource) ([]Update, error) {
	var out []Update
	for {
		b, err := src.NextBatch()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, b.Updates...)
	}
}

func TestFileSourceReportsLineOnError(t *testing.T) {
	src := NewReaderSource("bad", strings.NewReader("1 2 0.5\n1 junk 2\n"))
	_, err := src.NextBatch()
	if err == nil || !strings.Contains(err.Error(), "bad:2") {
		t.Fatalf("error = %v, want one mentioning bad:2", err)
	}
}

// gzipBytes compresses text with the default gzip settings.
func gzipBytes(t testing.TB, text string) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write([]byte(text)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFileSourceGzipTransparent verifies gzip input is sniffed by magic
// number and decompressed transparently, both from a reader and from a file.
func TestFileSourceGzipTransparent(t *testing.T) {
	plain := "# compressed stream\n1 2 0.5\n\n2 3 -1.25\n"
	want := []Update{{A: 1, B: 2, Delta: 0.5}, {A: 2, B: 3, Delta: -1.25}}

	src := NewReaderSource("gz", bytes.NewReader(gzipBytes(t, plain)))
	got, err := drainUpdates(src)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("gzip reader: got %+v, want %+v", got, want)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "updates.gz")
	if err := os.WriteFile(path, gzipBytes(t, plain), 0o644); err != nil {
		t.Fatal(err)
	}
	fsrc, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fsrc.Close()
	got, err = drainUpdates(fsrc)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("gzip file: got %+v, want %+v", got, want)
	}
}

// TestFileSourceGzipErrorsIdentifySource pins the failure modes of compressed
// input: a gzip magic number followed by garbage must fail with an error that
// names the source, not panic or be parsed as text.
func TestFileSourceGzipErrorsIdentifySource(t *testing.T) {
	for name, data := range map[string][]byte{
		"bad-header":  {0x1f, 0x8b, 0xff, 0xff},
		"truncated":   gzipBytes(t, "1 2 0.5\n")[:8],
		"corrupt-crc": append(gzipBytes(t, "1 2 0.5\n")[:20], 0, 0, 0, 0),
	} {
		src := NewReaderSource("gzbad", bytes.NewReader(data))
		_, err := drainUpdates(src)
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: corrupt gzip input was accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "gzbad") {
			t.Errorf("%s: error %v does not identify the source", name, err)
		}
	}
}

func TestWriteUpdatesRoundTrips(t *testing.T) {
	updates := []Update{{A: 1, B: 2, Delta: 0.125}, {A: 3, B: 4, Delta: -2}}
	var b strings.Builder
	if n, err := WriteUpdates(&b, updates); err != nil || n != 2 {
		t.Fatalf("WriteUpdates = %d, %v", n, err)
	}
	got, err := drainUpdates(NewReaderSource("roundtrip", strings.NewReader(b.String())))
	if err != nil {
		t.Fatal(err)
	}
	for i := range updates {
		if got[i] != updates[i] {
			t.Errorf("update %d: got %+v, want %+v", i, got[i], updates[i])
		}
	}
}

func TestSyntheticDeterministicAndBounded(t *testing.T) {
	cfg := SynthConfig{Vertices: 50, Updates: 200, Seed: 7, Skew: 1.5, NegativeFraction: 0.2}
	a, b := MustSynthetic(cfg), MustSynthetic(cfg)
	if len(a) != 200 {
		t.Fatalf("generated %d updates, want 200", len(a))
	}
	negatives := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
		u := a[i]
		if u.A == u.B {
			t.Fatalf("self-loop generated: %+v", u)
		}
		if u.A < 0 || int(u.A) >= cfg.Vertices || u.B < 0 || int(u.B) >= cfg.Vertices {
			t.Fatalf("vertex out of range: %+v", u)
		}
		if u.Delta == 0 {
			t.Fatalf("zero delta generated: %+v", u)
		}
		if u.Delta < 0 {
			negatives++
		}
	}
	if negatives == 0 || negatives == len(a) {
		t.Fatalf("negative mix degenerate: %d/%d", negatives, len(a))
	}
}

func TestSyntheticSeedChangesStream(t *testing.T) {
	a := MustSynthetic(SynthConfig{Vertices: 50, Updates: 100, Seed: 1})
	b := MustSynthetic(SynthConfig{Vertices: 50, Updates: 100, Seed: 2})
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := Synthetic(SynthConfig{Vertices: 1, Updates: 10}); err == nil {
		t.Error("want error for 1 vertex")
	}
	if _, err := Synthetic(SynthConfig{Vertices: 10, Updates: 10, NegativeFraction: 1}); err == nil {
		t.Error("want error for negative fraction 1")
	}
	if _, err := Synthetic(SynthConfig{Vertices: 10}); err == nil {
		t.Error("want error for 0 updates")
	}
}

func TestReplayBatchingAndStats(t *testing.T) {
	src := NewSliceSource(MustSynthetic(SynthConfig{Vertices: 20, Updates: 105, Seed: 11, NegativeFraction: 0.3}), 25)
	eng := core.MustNew(core.Config{T: 1.5, Nmax: 4})
	var sink core.CountingSink
	r := NewReplay(src, eng, &sink)
	var sizes []int
	r.SetBoundaryHook(func() error {
		sizes = append(sizes, r.Stats().Updates)
		return nil
	})

	st, err := r.RunBatches(25, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sizes, []int{25, 50, 75, 100, 105}) {
		t.Fatalf("updates replayed at each boundary = %v, want 25, 50, 75, 100, 105", sizes)
	}
	if st.Updates != 105 {
		t.Fatalf("Updates = %d, want 105", st.Updates)
	}
	if st.Batches != 5 { // 4 full batches of 25 plus the final 5
		t.Fatalf("Batches = %d, want 5", st.Batches)
	}
	if st.Events != sink.Total() {
		t.Fatalf("stats events %d != sink total %d", st.Events, sink.Total())
	}
	if st.Elapsed <= 0 || st.UpdatesPerSecond() <= 0 {
		t.Fatalf("degenerate timing stats: %+v", st)
	}
	if st.MinBatchLatency <= 0 || st.MaxBatchLatency < st.MinBatchLatency {
		t.Fatalf("degenerate latency stats: %+v", st)
	}
	again, err := r.RunBatches(1, false)
	if err != nil || again.Updates != st.Updates || again.Batches != st.Batches || len(sizes) != 5 {
		t.Fatalf("RunBatches after exhaustion = %+v, %v with %d boundaries, want the same stats, no error and no boundary", again, err, len(sizes))
	}
}

func TestNewReplayNilSinkKeepsInstalledSink(t *testing.T) {
	eng := core.MustNew(core.Config{T: 3, Nmax: 4})
	var mine core.CountingSink
	eng.SetSink(&mine)
	r := NewReplay(NewSliceSource([]Update{{A: 1, B: 2, Delta: 5}}, 0), eng, nil)
	if eng.Sink() != &mine {
		t.Fatal("NewReplay(nil sink) replaced the engine's installed sink")
	}
	if _, err := r.RunBatches(8, false); err != nil {
		t.Fatal(err)
	}
	if mine.Became != 1 {
		t.Fatalf("installed sink saw %d became events, want 1", mine.Became)
	}
}

func TestReplayRunMatchesSliceModeEngine(t *testing.T) {
	cfg := SynthConfig{Vertices: 15, Updates: 300, Seed: 42, NegativeFraction: 0.25}
	engineCfg := core.Config{T: 2, Nmax: 4}

	// Reference: an engine without a sink over the same stream; it still
	// counts its events.
	refUpdates := MustSynthetic(cfg)
	ref := core.MustNew(engineCfg)
	for _, u := range refUpdates {
		ref.Process(u)
	}
	refEvents := int(ref.Stats().Events)

	eng := core.MustNew(engineCfg)
	r := NewReplay(NewSliceSource(refUpdates, 32), eng, nil)
	st, err := r.RunBatches(32, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 300 {
		t.Fatalf("Updates = %d, want 300", st.Updates)
	}
	if int(st.Events) != refEvents {
		t.Fatalf("replay produced %d events, the reference %d", st.Events, refEvents)
	}
	refKeys := ref.OutputDenseKeys()
	gotKeys := eng.OutputDenseKeys()
	if !slices.Equal(gotKeys, refKeys) {
		t.Fatalf("output-dense sets differ: %v vs %v", gotKeys, refKeys)
	}
}

// TestFileSourceMaxBatchMarkerInterplay pins SetMaxBatch's split semantics: a
// marker immediately after a cap split closes the already-returned batch (no
// spurious empty tick), while a second consecutive marker is a genuine empty
// batch, and EOF after a cap split ends the stream cleanly.
func TestFileSourceMaxBatchMarkerInterplay(t *testing.T) {
	read := func(input string, cap int) (sizes []int) {
		src := NewReaderSource("test", strings.NewReader(input))
		src.SetMaxBatch(cap)
		for {
			b, err := src.NextBatch()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				return sizes
			}
			sizes = append(sizes, len(b.Updates))
		}
	}
	cases := []struct {
		input string
		cap   int
		want  []int
	}{
		// Cap fires exactly at the marker: 2 batches, not 2 + empty.
		{"1 2 1\n3 4 1\n%%\n5 6 1\n", 2, []int{2, 1}},
		// Second consecutive marker after a cap split is a real empty batch.
		{"1 2 1\n3 4 1\n%%\n%%\n5 6 1\n", 2, []int{2, 0, 1}},
		// Cap split mid-run: the remainder continues in the next batch.
		{"1 2 1\n3 4 1\n5 6 1\n", 2, []int{2, 1}},
		// EOF right after a cap split: no phantom trailing batch.
		{"1 2 1\n3 4 1\n", 2, []int{2}},
		// EOF right after an absorbed marker: also no phantom empty batch.
		{"1 2 1\n3 4 1\n%%\n", 2, []int{2}},
		// Trailing marker without a cap split still closes a final batch
		// exactly as before (marker-terminated file, one batch).
		{"1 2 1\n3 4 1\n%%\n", 0, []int{2}},
		// Uncapped: marker semantics unchanged.
		{"1 2 1\n3 4 1\n%%\n%%\n5 6 1\n", 0, []int{2, 0, 1}},
	}
	for _, tc := range cases {
		if got := read(tc.input, tc.cap); !slices.Equal(got, tc.want) {
			t.Errorf("input %q cap %d: batch sizes %v, want %v", tc.input, tc.cap, got, tc.want)
		}
	}
}
