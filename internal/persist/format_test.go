package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/graph"
	"dyndens/internal/story"
	"dyndens/internal/stream"
	"dyndens/internal/vset"
)

// captureAfter runs the single-engine document pipeline over docs and
// captures its state at the end.
func captureAfter(t testing.TB, docs []stream.Document) (*PipelineState, story.Stats) {
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

// smallRunDocs is 21 documents that leave a family on {1,2}, a dense triple
// under it and a story.
func smallRunDocs() []stream.Document {
	var docs []stream.Document
	for i := range 20 {
		ents := vset.New(1, 2)
		if i >= 12 {
			ents = vset.New(1, 2, 3)
		}
		docs = append(docs, stream.Document{Time: int64(i), Entities: ents})
	}
	return append(docs, stream.Document{Time: 20, Entities: vset.New(3, 4)})
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

// TestGraphStateBoundedByLiveEdges pins that the persisted graph is a function
// of the live pairs, not of the stream: n documents over a wide, uniformly
// mentioned background are followed by a copy of themselves n time units on,
// with every entity shifted past those of the first n. By the end of the copy
// the first period has faded out, so the live pairs match in number while
// twice as many vertices have carried an edge. The encoded graph states must
// be within 10 % of each other.
func TestGraphStateBoundedByLiveEdges(t *testing.T) {
	const n = 2000
	gen, err := stream.NewDocSynthetic(stream.DocSynthConfig{
		BackgroundEntities: 2000, BackgroundSkew: 1, Stories: 3, StorySize: 4, Docs: n, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	once, err := stream.DrainDocs(gen)
	if err != nil {
		t.Fatal(err)
	}
	var shift vset.Vertex
	for _, d := range once {
		shift = max(shift, d.Entities.Max()+1)
	}
	twice := append([]stream.Document(nil), once...)
	for _, d := range once {
		ents := make([]vset.Vertex, len(d.Entities))
		for i, v := range d.Entities {
			ents[i] = v + shift
		}
		twice = append(twice, stream.Document{Time: d.Time + n, Entities: vset.New(ents...)})
	}
	encoded := func(ps *PipelineState) int {
		var e encoder
		encodeGraphState(&e, ps.Graph)
		return len(e.b)
	}
	short, _ := captureAfter(t, once)
	long, _ := captureAfter(t, twice)
	if a, b := len(short.Graph.EdgeU), len(long.Graph.EdgeU); 10*b > 11*a || 10*a > 11*b {
		t.Fatalf("fixture: %d live pairs after %d documents, %d after %d; want about as many", a, n, b, 2*n)
	}
	if a, b := encoded(short), encoded(long); 10*b > 11*a || 10*a > 11*b {
		t.Fatalf("encoded graph state is %d bytes after %d documents and %d after %d: it grows with the stream", a, n, b, 2*n)
	}
}

// TestAggregatorStateBoundedByLivePairs pins that the persisted aggregator
// state is a function of the live pairs, not of the stream: it holds each
// tracked pair once, with one retirement entry, whatever the pairs that came
// and went. n documents are followed by the same n with every entity shifted
// past the first ones, n time units on; and, in a third run, by a burst of
// 4n one-off pairs before the shifted copy, which has fully retired by its
// end. The encoded aggregator states must be within 10 % of the first.
func TestAggregatorStateBoundedByLivePairs(t *testing.T) {
	const n = 2000
	gen, err := stream.NewDocSynthetic(stream.DocSynthConfig{
		BackgroundEntities: 2000, BackgroundSkew: 1, Stories: 3, StorySize: 4, Docs: n, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	once, err := stream.DrainDocs(gen)
	if err != nil {
		t.Fatal(err)
	}
	var shift vset.Vertex
	for _, d := range once {
		shift = max(shift, d.Entities.Max()+1)
	}
	// shifted is once moved on by dt time units, every entity by shift.
	shifted := func(dt int64) []stream.Document {
		var out []stream.Document
		for _, d := range once {
			ents := make([]vset.Vertex, len(d.Entities))
			for i, v := range d.Entities {
				ents[i] = v + shift
			}
			out = append(out, stream.Document{Time: d.Time + dt, Entities: vset.New(ents...)})
		}
		return out
	}
	twice := append(slices.Clone(once), shifted(n)...)
	burst := slices.Clone(once)
	for i := range 4 * n { // one fresh pair per document, four documents per time unit
		v := 2*shift + 2*vset.Vertex(i)
		burst = append(burst, stream.Document{Time: n + int64(i/4), Entities: vset.New(v, v+1)})
	}
	burst = append(burst, shifted(2*n)...)
	encoded := func(ps *PipelineState) int {
		var e encoder
		encodeAggState(&e, ps.Agg)
		return len(e.b)
	}
	short, _ := captureAfter(t, once)
	a := encoded(short)
	for _, c := range []struct {
		name string
		docs []stream.Document
	}{{"the shifted copy", twice}, {"a retired burst and the shifted copy", burst}} {
		long, _ := captureAfter(t, c.docs)
		if p, q := len(short.Agg.Pairs), len(long.Agg.Pairs); 10*q > 11*p || 10*p > 11*q {
			t.Fatalf("fixture: %d live pairs after %d documents, %d after %s; want about as many", p, n, q, c.name)
		}
		if b := encoded(long); 10*b > 11*a || 10*a > 11*b {
			t.Fatalf("encoded aggregator state is %d bytes after %d documents and %d after %s: it grows with the stream", a, n, b, c.name)
		}
	}
}

// shardedState is what builds that could shard the engine wrote under a
// snapshot's sharded-state flag: the merger's sequence counter and
// output-dense keys, the shared graph and each worker's index.
type shardedState struct {
	NextSeq uint64
	Tracked []string
	Graph   graph.State
	Workers []core.EngineState
}

// encodeSnapshotAs writes st in snapshot format version 1, 2 or 3,
// independently of the product encoder. Versions 1 and 2 stored with each
// graph the set known of every vertex that had ever carried an edge, ahead of
// its edges. Version 1 also stored the tracker's whole lifecycle log (here
// log) where later versions store the counts. A non-nil sharded is written
// under the sharded-state flag, as a sharded build wrote it. The engine and
// aggregator layouts have not changed since version 1.
func encodeSnapshotAs(version uint32, fingerprint string, st *PipelineState, known []graph.Vertex, log []story.Record, sharded *shardedState) []byte {
	var e encoder
	e.b = append(e.b, snapMagic...)
	e.u32(version)
	e.str(fingerprint)
	writeGraph := func(gs *graph.State) {
		if version < 3 {
			e.set(vset.Set(known))
		}
		e.u32(uint32(len(gs.EdgeU)))
		for i := range gs.EdgeU {
			e.u32(uint32(gs.EdgeU[i]))
			e.u32(uint32(gs.EdgeV[i]))
			e.f64(gs.EdgeW[i])
		}
	}
	e.u64(st.Seq)
	e.u64(st.Ticks)
	e.boolean(st.Graph != nil)
	if st.Graph != nil {
		writeGraph(st.Graph)
	}
	e.boolean(st.Engine != nil)
	if st.Engine != nil {
		encodeEngineState(&e, st.Engine)
	}
	e.boolean(sharded != nil)
	if ss := sharded; ss != nil {
		e.u64(ss.NextSeq)
		e.u32(uint32(len(ss.Tracked)))
		for _, k := range ss.Tracked {
			e.str(k)
		}
		writeGraph(&ss.Graph)
		e.u32(uint32(len(ss.Workers)))
		for i := range ss.Workers {
			encodeEngineState(&e, &ss.Workers[i])
		}
	}
	e.boolean(st.Agg != nil)
	if st.Agg != nil {
		encodeAggState(&e, st.Agg)
	}
	e.boolean(st.Tracker != nil)
	if ts := st.Tracker; ts != nil {
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
		if version == 1 {
			e.u32(uint32(len(log)))
			for _, r := range log {
				e.u64(r.Seq)
				e.u8(uint8(r.Kind))
				e.u64(uint64(r.Story))
				e.u64(uint64(r.Other))
				e.set(r.Entities)
			}
		} else {
			for k := story.Born; k <= story.Died; k++ {
				e.u64(uint64(ts.Counts[k]))
			}
		}
	}
	e.u32(crc32.Checksum(e.b, castagnoli))
	return e.b
}

// encodeSnapshotV1 writes st in snapshot format version 1 (see
// encodeSnapshotAs).
func encodeSnapshotV1(fingerprint string, st *PipelineState, known []graph.Vertex, log []story.Record) []byte {
	return encodeSnapshotAs(1, fingerprint, st, known, log, nil)
}

// encodeSnapshotV2 writes st in snapshot format version 2 (see
// encodeSnapshotAs).
func encodeSnapshotV2(fingerprint string, st *PipelineState, known []graph.Vertex) []byte {
	return encodeSnapshotAs(2, fingerprint, st, known, nil, nil)
}

// knownOf is a vertex set such as versions 1 and 2 stored with st's graph:
// every vertex with an edge, and one beyond them that has none any more.
func knownOf(st *PipelineState) []graph.Vertex {
	known := append(slices.Clone(st.Graph.EdgeU), st.Graph.EdgeV...)
	slices.Sort(known)
	known = slices.Compact(known)
	if len(known) == 0 {
		return []graph.Vertex{0}
	}
	return append(known, known[len(known)-1]+1)
}

// shardedSnapshot is the small run of smallRunDocs as a build with two
// engine shards wrote it in format version 2 or 3: no single-engine graph or
// index, and the sharded state in their place.
func shardedSnapshot(t testing.TB, version uint32) (*PipelineState, []byte) {
	st, _ := captureAfter(t, smallRunDocs())
	st.Seq = uint64(len(smallRunDocs()))
	sharded := &shardedState{
		NextSeq: st.Ticks + 1,
		Graph:   *st.Graph,
		Workers: []core.EngineState{*st.Engine, *st.Engine},
	}
	bare := *st
	bare.Graph, bare.Engine = nil, nil
	return st, encodeSnapshotAs(version, testFP, &bare, knownOf(st), nil, sharded)
}

// TestShardedSnapshotRefused pins that a snapshot holding a sharded engine's
// state, in format version 2 or 3, is never resumed: recovery over a
// directory holding it fails with an error that names sharding, and the
// decoder refuses it alone. The same run's single-engine snapshot, written by
// the same test-side encoder in version 3, is byte-identical to the product
// encoder's and recovers.
func TestShardedSnapshotRefused(t *testing.T) {
	for _, version := range []uint32{2, 3} {
		st, raw := shardedSnapshot(t, version)
		if _, err := decodeSnapshot(raw, testFP); err == nil || !strings.Contains(err.Error(), "sharded") {
			t.Fatalf("version %d: the decoder took a sharded snapshot (err %v)", version, err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName(st.Seq)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if pst, err := Open(Config{Dir: dir, Fingerprint: testFP}); err == nil {
			pst.Close()
			t.Fatalf("version %d: recovery resumed a sharded snapshot", version)
		} else if !strings.Contains(err.Error(), "sharded") {
			t.Fatalf("version %d: recovery refused a sharded snapshot with %v, which does not name sharding", version, err)
		}
	}
	st, _ := shardedSnapshot(t, 3)
	raw := encodeSnapshot(testFP, st)
	if !bytes.Equal(encodeSnapshotAs(snapVersion, testFP, st, nil, nil, nil), raw) {
		t.Fatal("the product encoder's snapshot differs from the test-side version-3 encoding")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(st.Seq)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	pst, err := Open(Config{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	if got := pst.Restored(); got == nil || got.Seq != st.Seq || got.Engine == nil {
		t.Fatalf("the single-engine snapshot at unit %d recovers as %+v", st.Seq, got)
	}
}

// TestSnapshotV1Resumes pins the cross-version resume: a WAL directory whose
// snapshots are in format version 1 decodes to the same state as the current
// version (the log counted by kind, the vertex set dropped), and a restart
// over it ends with the Stats, the story table and the record suffix of an
// uninterrupted run.
func TestSnapshotV1Resumes(t *testing.T) { checkOldSnapshotsResume(t, 1) }

// TestSnapshotV2Resumes pins the same for format version 2, whose graphs
// carry the set of every vertex that ever had an edge: each snapshot restores
// to the engine, aggregator and tracker state of its version-3 capture, and
// one truncated inside its vertex set is refused.
func TestSnapshotV2Resumes(t *testing.T) { checkOldSnapshotsResume(t, 2) }

// checkOldSnapshotsResume rewrites the snapshots of a WAL directory in format
// version 1 or 2 and checks what TestSnapshotV1Resumes and
// TestSnapshotV2Resumes describe.
func checkOldSnapshotsResume(t *testing.T, version uint32) {
	docs := testDocs(t, 400)
	want := runBare(t, docs)
	dir := t.TempDir()
	first, done := runPipeline(t, dir, docs[:200], false, 0, 60)
	if !done {
		t.Fatal("first run did not finish")
	}
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
		st, err := decodeSnapshot(raw, crashFP)
		if err != nil {
			t.Fatal(err)
		}
		counted := 0
		for _, c := range st.Tracker.Counts {
			counted += c
		}
		known := knownOf(st)
		old := encodeSnapshotAs(version, crashFP, st, known, first.records[:counted], nil)
		back, err := decodeSnapshot(old, crashFP)
		if err != nil {
			t.Fatalf("%s in version %d: %v", ent.Name(), version, err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("%s decodes differently in version %d:\n got %+v\nwant %+v", ent.Name(), version, back, st)
		}
		if version == 2 {
			checkSameRestore(t, ent.Name(), back, st)
			checkTruncatedKnownRefused(t, ent.Name(), old, crashFP, len(known))
		}
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		converted++
	}
	if converted == 0 {
		t.Fatal("the first run cut no snapshot")
	}
	got, done := runPipeline(t, dir, docs, false, 0, 60)
	if !done {
		t.Fatal("resumed run did not finish")
	}
	if got.base == 0 {
		t.Fatalf("the resumed run restored no records from the version-%d snapshot", version)
	}
	checkEqual(t, got, want, fmt.Sprintf("version %d", version))
}

// checkSameRestore restores got and want into an engine, an aggregator and a
// tracker each, and requires equal exported states.
func checkSameRestore(t *testing.T, label string, got, want *PipelineState) {
	t.Helper()
	type restored struct {
		graph  graph.State
		engine core.EngineState
		agg    stream.AggregatorState
		trk    story.TrackerState
	}
	restore := func(st *PipelineState) restored {
		var r restored
		eng, err := RestoreEngine(testEngCfg, st)
		if err != nil {
			t.Fatal(err)
		}
		r.graph, r.engine = eng.Graph().ExportState(), eng.ExportState()
		agg, err := RestoreAggregator(stream.NewSliceDocSource(nil), testAggCfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if r.agg, err = agg.ExportState(); err != nil {
			t.Fatal(err)
		}
		tr, err := RestoreTracker(testTrkCfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if r.trk, err = tr.ExportState(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	if g, w := restore(got), restore(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: the version-2 snapshot restores to\n%+v\nthe version-3 capture to\n%+v", label, g, w)
	}
}

// checkTruncatedKnownRefused cuts the version-2 snapshot raw
// off halfway through the vertex set of its graph, which holds n vertices,
// seals the rest with a valid CRC, and requires the decoder to refuse it.
func checkTruncatedKnownRefused(t *testing.T, label string, raw []byte, fingerprint string, n int) {
	t.Helper()
	// magic, version, fingerprint, seq, ticks, the graph's flag, the set's length
	at := len(snapMagic) + 4 + 4 + len(fingerprint) + 8 + 8 + 1 + 4 + 4*(n/2)
	if at >= len(raw)-4 {
		t.Fatalf("%s: the snapshot is %d bytes, too short to cut at %d", label, len(raw), at)
	}
	cut := append([]byte(nil), raw[:at]...)
	cut = binary.LittleEndian.AppendUint32(cut, crc32.Checksum(cut, castagnoli))
	if _, err := decodeSnapshot(cut, fingerprint); err == nil {
		t.Fatalf("%s: a version-2 snapshot cut inside its vertex set decoded", label)
	}
}

// TestSnapshotVersionChecks pins what the decoder refuses: a version it does
// not know, and a version-1 log with a record of no known kind.
func TestSnapshotVersionChecks(t *testing.T) {
	st := &PipelineState{Seq: 3, Tracker: &story.TrackerState{NextID: 1}}
	raw := encodeSnapshot(testFP, st)
	if got, err := decodeSnapshot(raw, testFP); err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("version-%d round trip: %+v, %v", snapVersion, got, err)
	}
	future := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(future[len(snapMagic):], snapVersion+1)
	binary.LittleEndian.PutUint32(future[len(future)-4:], crc32.Checksum(future[:len(future)-4], castagnoli))
	if _, err := decodeSnapshot(future, testFP); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("a version-%d snapshot decoded (err %v)", snapVersion+1, err)
	}
	bad := encodeSnapshotV1(testFP, st, nil, []story.Record{{Seq: 1, Kind: story.Died + 1, Story: 1}})
	if _, err := decodeSnapshot(bad, testFP); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("a version-1 record of unknown kind decoded (err %v)", err)
	}
}

// FuzzDecodeSnapshot feeds the snapshot decoder arbitrary bytes, both as they
// are and sealed with a valid CRC (so that mutations reach the payload), and
// whatever decodes to the restore constructors. Every input must either be
// refused with an error or restore, or be refused by a constructor with an
// error; none may panic. The seeds are one small run's capture in format
// versions 1, 2 and 3, and the same run as a sharded build wrote it in
// version 3, which the decoder refuses, all without their CRC. The run is
// smallRunDocs, a few hundred bytes, so that the fuzzer's minimiser is quick.
func FuzzDecodeSnapshot(f *testing.F) {
	st, _ := captureAfter(f, smallRunDocs())
	for _, raw := range [][]byte{
		encodeSnapshotV1(testFP, st, knownOf(st), nil),
		encodeSnapshotV2(testFP, st, knownOf(st)),
		encodeSnapshot(testFP, st),
	} {
		if _, err := decodeSnapshot(raw, testFP); err != nil {
			f.Fatal(err)
		}
		f.Add(raw[:len(raw)-4])
	}
	_, sharded := shardedSnapshot(f, 3)
	f.Add(sharded[:len(sharded)-4])
	f.Fuzz(func(t *testing.T, in []byte) {
		sealed := binary.LittleEndian.AppendUint32(slices.Clone(in), crc32.Checksum(in, castagnoli))
		for _, raw := range [][]byte{in, sealed} {
			st, err := decodeSnapshot(raw, testFP)
			if err != nil {
				continue
			}
			RestoreEngine(testEngCfg, st)
			RestoreAggregator(stream.NewSliceDocSource(nil), testAggCfg, st)
			RestoreTracker(testTrkCfg, st)
		}
	})
}
