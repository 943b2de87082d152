package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// The crash-recovery property: kill the pipeline at an arbitrary point,
// restart it over the same WAL directory, let it finish — the tracker's
// Stats, the story table, and the output-dense result set must be deep-equal
// to an uninterrupted run, and the records the restarted run streams must be
// the uninterrupted stream past the records its restored state counts.
// Exercised buffered and with fsync, with the kill point randomised.

var testEngCfg = core.Config{T: 6.5, Nmax: 4}
var testTrkCfg = story.Config{MinJaccard: 0.5, Grace: 350, MinCardinality: 3}

var testAggCfg = stream.AggregatorConfig{EpochLength: 25, Decay: 0.7}

// crashFP is the fingerprint runPipeline opens its directory under.
const crashFP = "crash-test"

func testDocs(t testing.TB, n int) []stream.Document {
	t.Helper()
	gen, err := stream.NewDocSynthetic(stream.DocSynthConfig{
		BackgroundEntities: 30, Stories: 3, StorySize: 4, Docs: n, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := stream.DrainDocs(gen)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

type runResult struct {
	base    int            // records the restored tracker state counts
	records []story.Record // records streamed by this run
	stats   story.Stats
	table   []story.Snapshot
	keys    []string
}

// recordTotal is the number of lifecycle records Stats counts.
func recordTotal(s story.Stats) int {
	return s.Born + s.Updated + s.Merged + s.Split + s.Died
}

// finish completes res from the tracker of a finished run.
func (res runResult) finish(tr *story.Tracker, keys []string) runResult {
	res.stats, res.table, res.keys = tr.Stats(), tr.Stories(), keys
	return res
}

// runPipeline drives the full document pipeline over dir. stopAfter > 0
// simulates a crash: the run aborts once that many documents are durable and
// the store is abandoned without checkpoint, flush, or close — exactly the
// state a SIGKILL leaves behind. Returns finished=false in that case.
func runPipeline(t *testing.T, dir string, docs []stream.Document,
	fsync bool, stopAfter, snapEvery uint64) (runResult, bool) {
	t.Helper()
	st, err := Open(Config{
		Dir:           dir,
		Fingerprint:   crashFP,
		SnapshotEvery: snapEvery,
		Fsync:         fsync,
		SegmentBytes:  4096, // force rotation so recovery crosses segments
	})
	if err != nil {
		t.Fatal(err)
	}
	src := st.Docs(stream.NewSliceDocSource(docs))
	agg, err := RestoreAggregator(src, testAggCfg, st.Restored())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RestoreTracker(testTrkCfg, st.Restored())
	if err != nil {
		t.Fatal(err)
	}
	res := runResult{base: recordTotal(tr.Stats())}
	tr.SetRecordSink(func(r story.Record) { res.records = append(res.records, r) })
	var baseTicks uint64
	if ps := st.Restored(); ps != nil {
		baseTicks = ps.Ticks
	}

	eng, err := RestoreEngine(testEngCfg, st.Restored())
	if err != nil {
		t.Fatal(err)
	}
	rep := stream.NewReplay(agg, eng, tr)
	rep.SetBoundaryHook(func() error {
		if stopAfter > 0 && st.Seq() >= stopAfter {
			return stream.ErrStopped
		}
		if !agg.Drained() {
			return nil
		}
		return st.MaybeSnapshot(func() (*PipelineState, error) {
			ps, err := CaptureSingle(eng, agg, tr)
			if err != nil {
				return nil, err
			}
			ps.Ticks = baseTicks + uint64(rep.Stats().Ticks)
			return ps, nil
		})
	})
	stats, err := rep.RunBatches(256, false)
	if errors.Is(err, stream.ErrStopped) {
		// Abandon the store: no checkpoint, no flush, no close. A real kill
		// also stops the background snapshot writer; here it would live on in
		// the test process and write and prune snapshots under the restarted
		// run, so the kill is placed after it finishes.
		st.snapWG.Wait()
		return runResult{}, false
	}
	if err != nil {
		t.Fatal(err)
	}
	tr.Close(baseTicks + uint64(stats.Ticks))
	res = res.finish(tr, eng.OutputDenseKeys())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return res, true
}

// runBare is the persistence-free reference: the same pipeline with no store.
func runBare(t *testing.T, docs []stream.Document) runResult {
	t.Helper()
	agg, err := stream.NewAggregator(stream.NewSliceDocSource(docs), testAggCfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := story.NewTracker(testTrkCfg)
	if err != nil {
		t.Fatal(err)
	}
	var res runResult
	tr.SetRecordSink(func(r story.Record) { res.records = append(res.records, r) })
	eng := core.MustNew(testEngCfg)
	stats, err := stream.NewReplay(agg, eng, tr).RunBatches(256, false)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close(uint64(stats.Ticks))
	return res.finish(tr, eng.OutputDenseKeys())
}

// checkEqual compares a finished run with the uninterrupted reference want,
// which restored nothing and streamed every record.
func checkEqual(t *testing.T, got, want runResult, label string) {
	t.Helper()
	suffix := want.records[min(got.base, len(want.records)):]
	if got.base+len(got.records) != len(want.records) || (len(suffix) > 0 && !reflect.DeepEqual(got.records, suffix)) {
		t.Errorf("%s: the %d records streamed after restoring %d are not the reference's suffix (%d records):\n got %v\nwant %v",
			label, len(got.records), got.base, len(want.records), got.records, suffix)
	}
	if got.stats != want.stats {
		t.Errorf("%s: tracker stats diverge:\n got %+v\nwant %+v", label, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.table, want.table) {
		t.Errorf("%s: story table diverges:\n got %v\nwant %v", label, got.table, want.table)
	}
	if !reflect.DeepEqual(got.keys, want.keys) {
		t.Errorf("%s: output-dense keys diverge:\n got %v\nwant %v", label, got.keys, want.keys)
	}
}

// TestLoggedRunMatchesBare pins that the WAL wrapper itself is transparent:
// a logged, uninterrupted run equals a persistence-free run bit for bit.
func TestLoggedRunMatchesBare(t *testing.T) {
	docs := testDocs(t, 400)
	want := runBare(t, docs)
	got, done := runPipeline(t, t.TempDir(), docs, false, 0, 60)
	if !done {
		t.Fatal("uninterrupted run did not finish")
	}
	checkEqual(t, got, want, "logged")
}

// TestCrashRestartRecovers is the random-kill property test: kill at a random
// durable unit, restart over the same directory, finish, and require the
// final state to deep-equal the uninterrupted reference. Some kills land
// before the first snapshot (pure-WAL or pure-reread recovery), some after
// (snapshot + WAL replay + live tail) — the rng seeds are fixed so failures
// reproduce.
func TestCrashRestartRecovers(t *testing.T) {
	docs := testDocs(t, 400)
	rng := rand.New(rand.NewSource(41))
	want := runBare(t, docs)
	for _, fsync := range []bool{false, true} {
		kills := 3
		if fsync {
			kills = 2 // fsync per frame is slow; fewer kill points suffice
		}
		for k := 0; k < kills; k++ {
			stopAfter := uint64(rng.Intn(len(docs)-20) + 10)
			label := fmt.Sprintf("fsync=%v/kill@%d", fsync, stopAfter)
			dir := filepath.Join(t.TempDir(), "wal")
			if _, done := runPipeline(t, dir, docs, fsync, stopAfter, 60); done {
				t.Fatalf("%s: run finished before the kill point", label)
			}
			got, done := runPipeline(t, dir, docs, fsync, 0, 60)
			if !done {
				t.Fatalf("%s: restarted run did not finish", label)
			}
			checkEqual(t, got, want, label)
		}
	}
}

// TestDoubleCrashRecovers kills the pipeline twice — the second kill while
// recovering from the first — before letting it finish.
func TestDoubleCrashRecovers(t *testing.T) {
	docs := testDocs(t, 400)
	want := runBare(t, docs)
	dir := filepath.Join(t.TempDir(), "wal")
	if _, done := runPipeline(t, dir, docs, false, 250, 60); done {
		t.Fatal("first run finished before the kill point")
	}
	if _, done := runPipeline(t, dir, docs, false, 320, 60); done {
		t.Fatal("second run finished before the kill point")
	}
	got, done := runPipeline(t, dir, docs, false, 0, 60)
	if !done {
		t.Fatal("final run did not finish")
	}
	checkEqual(t, got, want, "double crash")
}
