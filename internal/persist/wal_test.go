package persist

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dyndens/internal/stream"
)

// Low-level corruption tests: each one damages the on-disk state in a specific
// way and pins exactly how much of the stream recovery keeps. The invariant
// throughout is "recover the longest contiguous durable prefix, never fail
// Open over our own damage" — only foreign state (fingerprint mismatch) is a
// hard error.

const testFP = "wal-test:v1"

// writeDocWAL drives docs through a logging store and closes it cleanly, so
// every frame is flushed to disk.
func writeDocWAL(t *testing.T, dir string, docs []stream.Document, segBytes int64) {
	t.Helper()
	st, err := Open(Config{Dir: dir, Fingerprint: testFP, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	src := st.Docs(stream.NewSliceDocSource(docs))
	for {
		if _, err := src.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopen opens dir and returns the store plus its decoded replay documents.
func reopen(t *testing.T, dir string) (*Store, []stream.Document) {
	t.Helper()
	st, err := Open(Config{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	var docs []stream.Document
	for _, f := range st.replay {
		d, err := decodeDoc(f.payload)
		if err != nil {
			t.Fatalf("frame %d: %v", f.seq, err)
		}
		docs = append(docs, d)
	}
	return st, docs
}

// segments returns dir's segment file names in sequence order.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestWALRoundTrip(t *testing.T) {
	docs := testDocs(t, 50)
	dir := t.TempDir()
	writeDocWAL(t, dir, docs, 512) // tiny segments: the chain crosses files
	if n := len(segments(t, dir)); n < 2 {
		t.Fatalf("want multiple segments, got %d", n)
	}
	st, got := reopen(t, dir)
	if st.DurableSeq() != 50 {
		t.Fatalf("durable = %d, want 50", st.DurableSeq())
	}
	if !reflect.DeepEqual(got, docs) {
		t.Fatalf("replayed documents diverge from logged ones")
	}
	for i, f := range st.replay {
		if f.seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d", i, f.seq)
		}
	}
}

func TestTornFinalFrameTruncates(t *testing.T) {
	docs := testDocs(t, 50)
	dir := t.TempDir()
	writeDocWAL(t, dir, docs, 1<<20) // one segment
	segs := segments(t, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	st, got := reopen(t, dir)
	if st.DurableSeq() != 49 {
		t.Fatalf("durable = %d, want 49 after torn tail", st.DurableSeq())
	}
	if !reflect.DeepEqual(got, docs[:49]) {
		t.Fatalf("replayed prefix diverges")
	}
	// Open physically truncated the torn bytes; a second recovery must agree.
	st2, _ := reopen(t, dir)
	if st2.DurableSeq() != 49 {
		t.Fatalf("second recovery durable = %d, want 49", st2.DurableSeq())
	}
}

func TestBitFlippedFrameDropped(t *testing.T) {
	docs := testDocs(t, 50)
	dir := t.TempDir()
	writeDocWAL(t, dir, docs, 1<<20)
	segs := segments(t, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0x40 // inside the final frame: CRC now mismatches
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, got := reopen(t, dir)
	if st.DurableSeq() != 49 {
		t.Fatalf("durable = %d, want 49 after bit flip", st.DurableSeq())
	}
	if !reflect.DeepEqual(got, docs[:49]) {
		t.Fatalf("replayed prefix diverges")
	}
}

func TestMissingMiddleSegmentCutsChain(t *testing.T) {
	docs := testDocs(t, 60)
	dir := t.TempDir()
	writeDocWAL(t, dir, docs, 512)
	segs := segments(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	gone := segs[1]
	firstSeq, ok := parseSegmentName(gone)
	if !ok {
		t.Fatalf("bad segment name %q", gone)
	}
	if err := os.Remove(filepath.Join(dir, gone)); err != nil {
		t.Fatal(err)
	}
	st, got := reopen(t, dir)
	want := firstSeq - 1 // everything before the hole; nothing after it
	if st.DurableSeq() != want {
		t.Fatalf("durable = %d, want %d after missing segment", st.DurableSeq(), want)
	}
	if !reflect.DeepEqual(got, docs[:want]) {
		t.Fatalf("replayed prefix diverges")
	}
	// clean() removed the now-unreachable later segments so a restarted writer
	// can reuse their names.
	for _, name := range segments(t, dir) {
		if seq, _ := parseSegmentName(name); seq > want {
			t.Fatalf("segment %s beyond the durable prefix survived cleanup", name)
		}
	}
}

func TestEmptySegmentFileIgnored(t *testing.T) {
	docs := testDocs(t, 20)
	dir := t.TempDir()
	writeDocWAL(t, dir, docs, 1<<20)
	// A crash between segment creation and the first flush leaves a zero-byte
	// file under the next segment name.
	if err := os.WriteFile(filepath.Join(dir, segmentName(21)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, got := reopen(t, dir)
	if st.DurableSeq() != 20 {
		t.Fatalf("durable = %d, want 20", st.DurableSeq())
	}
	if !reflect.DeepEqual(got, docs) {
		t.Fatalf("replayed documents diverge")
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(21))); !os.IsNotExist(err) {
		t.Fatalf("empty segment survived cleanup (err=%v)", err)
	}
}

func TestSnapshotFallbackPastCorrupt(t *testing.T) {
	dir := t.TempDir()
	older := &PipelineState{Seq: 10, Ticks: 4}
	newer := &PipelineState{Seq: 20, Ticks: 9}
	if err := writeSnapshot(dir, testFP, older, false); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, testFP, newer, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(20))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored() == nil || st.Restored().Seq != 10 {
		t.Fatalf("restored = %+v, want fallback to the seq-10 snapshot", st.Restored())
	}
	if st.DurableSeq() != 10 {
		t.Fatalf("durable = %d, want 10", st.DurableSeq())
	}
}

func TestFingerprintMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	writeDocWAL(t, dir, testDocs(t, 5), 1<<20)
	if _, err := Open(Config{Dir: dir, Fingerprint: "other-pipeline"}); err == nil {
		t.Fatal("Open accepted a WAL written by a different pipeline")
	}
	dir2 := t.TempDir()
	if err := writeSnapshot(dir2, testFP, &PipelineState{Seq: 3}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir2, Fingerprint: "other-pipeline"}); err == nil {
		t.Fatal("Open accepted a snapshot written by a different pipeline")
	}
}

// sliceBatchSource is a test BatchSource over a fixed batch sequence.
type sliceBatchSource struct {
	batches []stream.Batch
	pos     int
}

func (s *sliceBatchSource) NextBatch() (stream.Batch, error) {
	if s.pos >= len(s.batches) {
		return stream.Batch{}, io.EOF
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

func TestBatchChainRoundTrip(t *testing.T) {
	batches := []stream.Batch{
		{Updates: []stream.Update{{A: 1, B: 2, Delta: 1.5}, {A: 2, B: 3, Delta: 0.25}}},
		{Updates: []stream.Update{{A: 1, B: 2, Delta: -0.5}}, Decay: true},
		{Updates: []stream.Update{{A: 4, B: 5, Delta: 2}}},
		{Decay: true, Threshold: &stream.ThresholdUpdate{Scale: 0.49},
			Updates: []stream.Update{{A: 2, B: 3, Delta: -0.1}}},
		{Updates: []stream.Update{{A: 5, B: 6, Delta: 3}}},
	}
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	src := st.Batches(&sliceBatchSource{batches: batches})
	for {
		if _, err := src.NextBatch(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Config{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	if st2.DurableSeq() != uint64(len(batches)) {
		t.Fatalf("durable = %d, want %d", st2.DurableSeq(), len(batches))
	}
	replayed := st2.Batches(&sliceBatchSource{}) // empty live source: replay only
	for i, want := range batches {
		got, err := replayed.NextBatch()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d diverges:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
