package story

import (
	"maps"
	"slices"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/shard"
	"dyndens/internal/stream"
)

// These tests formalise the incremental result-set maintenance contract the
// story layer is built on: a consumer that does nothing but apply sink
// events to a key set holds, after EVERY update, exactly the engine's
// explicitly indexed output-dense set. The crossval suite in
// internal/stream checks the same property at oracle checkpoints; here it is
// pinned update-for-update.

// keySet is that consumer: Became inserts a subgraph's key, Ceased removes it.
type keySet map[string]bool

func (ks keySet) Emit(ev core.Event) {
	if ev.Kind == core.BecameOutputDense {
		ks[ev.Set.Key()] = true
	} else {
		delete(ks, ev.Set.Key())
	}
}

func (ks keySet) keys() []string { return slices.Sorted(maps.Keys(ks)) }

// contractStream is a small, churny update stream: enough negative updates
// that subgraphs both enter and leave the result set repeatedly.
func contractStream(t *testing.T, seed int64) []stream.Update {
	t.Helper()
	updates, err := stream.Synthetic(stream.SynthConfig{
		Vertices:         10,
		Updates:          300,
		Seed:             seed,
		NegativeFraction: 0.35,
		MeanDelta:        1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return updates
}

func TestResultSetMatchesEngineAfterEveryUpdate(t *testing.T) {
	for seed := int64(31); seed <= 33; seed++ {
		updates := contractStream(t, seed)
		eng := core.MustNew(core.Config{T: 2, Nmax: 4})
		rs := keySet{}
		eng.SetSink(rs)
		transitions := 0
		for i, u := range updates {
			before := len(rs)
			eng.Process(u)
			if len(rs) != before {
				transitions++
			}
			got, want := rs.keys(), eng.OutputDenseKeys()
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, update %d: event-maintained set %v != engine %v", seed, i+1, got, want)
			}
		}
		if transitions == 0 {
			t.Fatalf("seed %d: result set never changed; contract exercised nothing", seed)
		}
	}
}

// EmitSeq makes keySet a shard.SeqSink: it applies the numbered events.
func (ks keySet) EmitSeq(ev shard.SeqEvent) { ks.Emit(ev.Event) }

// TestResultSetMatchesShardedEngineAfterEveryUpdate pins the same contract
// for a consumer of the numbered stream of shard.New, at K ∈ {1, 4}.
func TestResultSetMatchesShardedEngineAfterEveryUpdate(t *testing.T) {
	for _, k := range []int{1, 4} {
		updates := contractStream(t, 37)
		se, err := shard.New(shard.Config{Shards: k, Engine: core.Config{T: 2, Nmax: 4}})
		if err != nil {
			t.Fatal(err)
		}
		rs := keySet{}
		se.SetSeqSink(rs)
		nonEmpty := 0
		for i, u := range updates {
			se.ProcessAll([]core.Update{u})
			se.Flush()
			got, want := rs.keys(), se.Engine().OutputDenseKeys()
			if !slices.Equal(got, want) {
				t.Fatalf("K=%d, update %d: event-maintained set %v != engine result set %v", k, i+1, got, want)
			}
			if len(got) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			t.Fatalf("K=%d: result set never became non-empty", k)
		}
		se.Close()
	}
}
