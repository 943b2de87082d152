package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// captureAfter runs the single-engine document pipeline over docs and
// captures its state at the end.
func captureAfter(t *testing.T, docs []stream.Document) (*PipelineState, story.Stats) {
	t.Helper()
	agg, err := stream.NewAggregator(stream.NewSliceDocSource(docs), testAggCfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := story.NewTracker(testTrkCfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.MustNew(testEngCfg)
	if _, err := stream.NewReplay(agg, eng, tr).RunBatches(256, false); err != nil {
		t.Fatal(err)
	}
	ps, err := CaptureSingle(eng, agg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return ps, tr.Stats()
}

// TestTrackerStateBoundedByTable pins that the persisted story state is a
// function of the story table, not of the stream. The planted stream of n
// documents is followed by a second copy of itself shifted n time units on;
// by the end of the copy the first period has faded out, so the tables match
// while the records have doubled. The encoded tracker states must be within
// 10 % of each other.
func TestTrackerStateBoundedByTable(t *testing.T) {
	const n = 2000
	once := testDocs(t, n)
	twice := append([]stream.Document(nil), once...)
	for _, d := range once {
		d.Time += n
		twice = append(twice, d)
	}
	encoded := func(ps *PipelineState) int {
		var e encoder
		encodeTrackerState(&e, ps.Tracker)
		return len(e.b)
	}
	short, shortStats := captureAfter(t, once)
	long, longStats := captureAfter(t, twice)
	if shortStats.Live != longStats.Live || shortStats.Fading != longStats.Fading {
		t.Fatalf("fixture: %d live + %d fading stories after %d documents, %d + %d after %d",
			shortStats.Live, shortStats.Fading, n, longStats.Live, longStats.Fading, 2*n)
	}
	if r1, r2 := recordTotal(shortStats), recordTotal(longStats); 10*r2 < 19*r1 {
		t.Fatalf("fixture: %d records after %d documents, %d after %d; want about twice as many", r1, n, r2, 2*n)
	}
	if a, b := encoded(short), encoded(long); 10*b > 11*a || 10*a > 11*b {
		t.Fatalf("encoded tracker state is %d bytes after %d documents and %d after %d: it grows with the stream", a, n, b, 2*n)
	}
}

// encodeSnapshotV1 writes st in snapshot format version 1, which stored the
// tracker's whole lifecycle log (here log) where version 2 stores the counts.
// The version-1 layout is written out independently of the current encoder.
func encodeSnapshotV1(fingerprint string, st *PipelineState, log []story.Record) []byte {
	var e encoder
	e.b = append(e.b, snapMagic...)
	e.u32(1)
	e.str(fingerprint)
	front := *st
	front.Tracker = nil
	encodePipelineState(&e, &front)
	if ts := st.Tracker; ts != nil {
		e.b[len(e.b)-1] = 1 // the tracker-present flag ends the payload
		e.u64(ts.Seq)
		e.u64(uint64(ts.NextID))
		e.u32(uint32(len(ts.Stories)))
		for _, s := range ts.Stories {
			e.u64(uint64(s.ID))
			e.set(s.Entities)
			e.u32(uint32(len(s.Live)))
			for _, set := range s.Live {
				e.set(set)
			}
			e.u64(s.BornSeq)
			e.u64(s.LastSeq)
			e.u64(s.FadeSeq)
			e.u64(s.SnapSeq)
			e.set(s.Snapshot)
		}
		e.u32(uint32(len(log)))
		for _, r := range log {
			e.u64(r.Seq)
			e.u8(uint8(r.Kind))
			e.u64(uint64(r.Story))
			e.u64(uint64(r.Other))
			e.set(r.Entities)
		}
	}
	e.u32(crc32.Checksum(e.b, castagnoli))
	return e.b
}

// TestSnapshotV1Resumes pins the cross-version resume: a WAL directory whose
// snapshots are in format version 1 decodes to the same state as version 2
// (the log counted by kind), and a restart over it ends with the Stats, the
// story table and the record suffix of an uninterrupted run.
func TestSnapshotV1Resumes(t *testing.T) {
	docs := testDocs(t, 400)
	for _, shards := range []int{0, 4} {
		label := fmt.Sprintf("shards=%d", shards)
		want := runBare(t, docs, shards)
		dir := t.TempDir()
		first, done := runPipeline(t, dir, docs[:200], shards, false, 0, 60)
		if !done {
			t.Fatalf("%s: first run did not finish", label)
		}
		fp := fmt.Sprintf("crash-test:shards=%d", shards)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		converted := 0
		for _, ent := range ents {
			if _, ok := parseSnapshotName(ent.Name()); !ok {
				continue
			}
			path := filepath.Join(dir, ent.Name())
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := decodeSnapshot(raw, fp)
			if err != nil {
				t.Fatal(err)
			}
			counted := 0
			for _, c := range st.Tracker.Counts {
				counted += c
			}
			v1 := encodeSnapshotV1(fp, st, first.records[:counted])
			back, err := decodeSnapshot(v1, fp)
			if err != nil {
				t.Fatalf("%s: %s in version 1: %v", label, ent.Name(), err)
			}
			if !reflect.DeepEqual(back, st) {
				t.Fatalf("%s: %s decodes differently in version 1:\n got %+v\nwant %+v", label, ent.Name(), back.Tracker, st.Tracker)
			}
			if err := os.WriteFile(path, v1, 0o644); err != nil {
				t.Fatal(err)
			}
			converted++
		}
		if converted == 0 {
			t.Fatalf("%s: the first run cut no snapshot", label)
		}
		got, done := runPipeline(t, dir, docs, shards, false, 0, 60)
		if !done {
			t.Fatalf("%s: resumed run did not finish", label)
		}
		if got.base == 0 {
			t.Fatalf("%s: the resumed run restored no records from the version-1 snapshot", label)
		}
		checkEqual(t, got, want, label)
	}
}

// TestSnapshotVersionChecks pins what the decoder refuses: a version it does
// not know, and a version-1 log with a record of no known kind.
func TestSnapshotVersionChecks(t *testing.T) {
	st := &PipelineState{Seq: 3, Tracker: &story.TrackerState{NextID: 1}}
	raw := encodeSnapshot(testFP, st)
	if got, err := decodeSnapshot(raw, testFP); err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("version-2 round trip: %+v, %v", got, err)
	}
	future := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(future[len(snapMagic):], snapVersion+1)
	binary.LittleEndian.PutUint32(future[len(future)-4:], crc32.Checksum(future[:len(future)-4], castagnoli))
	if _, err := decodeSnapshot(future, testFP); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("a version-%d snapshot decoded (err %v)", snapVersion+1, err)
	}
	bad := encodeSnapshotV1(testFP, st, []story.Record{{Seq: 1, Kind: story.Died + 1, Story: 1}})
	if _, err := decodeSnapshot(bad, testFP); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("a version-1 record of unknown kind decoded (err %v)", err)
	}
}
