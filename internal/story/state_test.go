package story

import (
	"fmt"
	"reflect"
	"testing"

	"dyndens/internal/core"
)

// sameRecords compares two record streams; an empty one may be nil.
func sameRecords(a, b []Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestTrackerRestoreMidStream cuts the reference workload at several update
// boundaries. A tracker restored from the state exported at the cut must
// stream exactly the suffix of the uninterrupted record stream, and end with
// the same Stats and story table: the restored counts carry the totals that
// the records before the cut no longer do.
func TestTrackerRestoreMidStream(t *testing.T) {
	w := defaultWorkload()
	updates, _ := w.updates(t)
	ref, refRecs := w.runSingle(t, updates)
	for _, cut := range []int{1, len(updates) / 3, len(updates) / 2, len(updates) - 1} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			eng := core.MustNew(w.eng)
			before, beforeLog := loggedTracker(w.trk)
			eng.SetSink(before)
			for _, u := range updates[:cut] {
				eng.Process(u)
			}
			st, err := before.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			after, err := NewTrackerFromState(w.trk, st)
			if err != nil {
				t.Fatal(err)
			}
			afterLog := logRecords(after)
			eng.SetSink(after)
			for _, u := range updates[cut:] {
				eng.Process(u)
			}
			after.Close(uint64(len(updates)))

			n := len(beforeLog.recs)
			if !sameRecords(beforeLog.recs, refRecs[:n]) {
				t.Fatalf("records before the cut diverge: %s", firstDiff(beforeLog.recs, refRecs[:n]))
			}
			if !sameRecords(afterLog.recs, refRecs[n:]) {
				t.Fatalf("records after the restore diverge from the uninterrupted suffix: %s", firstDiff(afterLog.recs, refRecs[n:]))
			}
			if after.Stats() != ref.Stats() {
				t.Fatalf("restored Stats %+v != uninterrupted %+v", after.Stats(), ref.Stats())
			}
			if !reflect.DeepEqual(after.Stories(), ref.Stories()) {
				t.Fatalf("restored story table diverges:\n got %+v\nwant %+v", after.Stories(), ref.Stories())
			}
		})
	}
}

// TestTrackerStateRejectsTamperedCounts pins the one invariant that ties the
// restored counts to the restored table: every story enters by Born or Split
// and leaves by Merged or Died, so born + split − merged − died is the number
// of rows. Counts that keep the identity are accepted as they are.
func TestTrackerStateRejectsTamperedCounts(t *testing.T) {
	tr := MustTracker(Config{})
	turn(tr, became(1, 2, 3))
	turn(tr, became(10, 11, 12))
	turn(tr, became(1, 2, 3, 10, 11, 12)) // merges story 2 into 1
	turn(tr, became(20, 21, 22))
	good, err := tr.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if want := [Died + 1]int{Born: 3, Updated: 1, Merged: 1}; good.Counts != want || len(good.Stories) != 2 {
		t.Fatalf("fixture: counts %v with %d rows, want %v with 2", good.Counts, len(good.Stories), want)
	}

	for _, c := range []struct {
		name   string
		tamper func(*TrackerState)
		ok     bool
	}{
		{"untouched", func(*TrackerState) {}, true},
		{"born+1", func(st *TrackerState) { st.Counts[Born]++ }, false},
		{"split+1", func(st *TrackerState) { st.Counts[Split]++ }, false},
		{"merged-1", func(st *TrackerState) { st.Counts[Merged]-- }, false},
		{"died+1", func(st *TrackerState) { st.Counts[Died]++ }, false},
		{"row dropped", func(st *TrackerState) { st.Stories = st.Stories[:1] }, false},
		{"updated negative", func(st *TrackerState) { st.Counts[Updated] = -1 }, false},
		{"all zero", func(st *TrackerState) { st.Counts = [Died + 1]int{} }, false},
		{"updated+5", func(st *TrackerState) { st.Counts[Updated] += 5 }, true},
		{"split+1 died+1", func(st *TrackerState) { st.Counts[Split]++; st.Counts[Died]++ }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := good
			st.Stories = append([]StoryState(nil), good.Stories...)
			c.tamper(&st)
			restored, err := NewTrackerFromState(Config{}, st)
			if !c.ok {
				if err == nil {
					t.Fatalf("counts %v with %d rows accepted", st.Counts, len(st.Stories))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := restored.Stats()
			if want := st.Counts; got.Born != want[Born] || got.Updated != want[Updated] || got.Merged != want[Merged] ||
				got.Split != want[Split] || got.Died != want[Died] {
				t.Fatalf("restored Stats %+v, want counts %v", got, want)
			}
		})
	}
}
