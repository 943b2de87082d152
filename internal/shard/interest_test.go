package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyndens/internal/core"
	"dyndens/internal/graph"
	"dyndens/internal/index"
)

// TestOverlapString pins the policies' names, which ShardedEngine.String
// prints, and the spelling of a value out of range.
func TestOverlapString(t *testing.T) {
	for ov, want := range map[Overlap]string{OverlapScoped: "scoped", OverlapMirror: "mirror", Overlap(99): "Overlap(99)"} {
		if got := ov.String(); got != want {
			t.Errorf("Overlap(%d).String() = %q, want %q", int(ov), got, want)
		}
	}
}

// TestInterestMapTracksIndexVertices is the core interest-map property: under
// subscription churn — vertices gaining their first index node, losing their
// last, and regrowing — the map's subscription set must equal the engine's
// live index labels at every checkpoint, and the churn counters must balance
// the live count.
func TestInterestMapTracksIndexVertices(t *testing.T) {
	router, err := NewRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.MustNew(testEngineCfg)
	eng.SetSink(core.EventSinkFunc(func(core.Event) {}))
	im := NewInterestMap(router, 0)
	eng.SetMembershipListener(im.Observe)

	check := func(phase string, i int) {
		t.Helper()
		want := eng.IndexVertices()
		var got []core.Vertex
		for v := range im.subscribed {
			got = append(got, v)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s update %d: subscriptions %v != index labels %v", phase, i, got, want)
		}
		if im.Subscriptions() != len(want) {
			t.Fatalf("%s update %d: Subscriptions() = %d, want %d", phase, i, im.Subscriptions(), len(want))
		}
		wantStars := slices.Contains(want, index.Star)
		if im.HasStars() != wantStars {
			t.Fatalf("%s update %d: HasStars() = %v, index says %v", phase, i, im.HasStars(), wantStars)
		}
		grows, lapses := im.Churn()
		if grows-lapses != uint64(len(want)) {
			t.Fatalf("%s update %d: churn %d-%d does not balance %d live subscriptions", phase, i, grows, lapses, len(want))
		}
	}

	// Grow, drain (overshooting negatives clamp every touched edge to zero,
	// emptying the index), regrow: forces lapse and regrow transitions in
	// addition to the first-node grows.
	grow := testStream(7, 24, 1500, 0.2)
	run := func(phase string, updates []core.Update) {
		for i, u := range updates {
			eng.Process(u)
			if i%53 == 0 || i == len(updates)-1 {
				check(phase, i)
			}
		}
	}
	run("grow", grow)
	drain := make([]core.Update, len(grow))
	for i, u := range grow {
		drain[i] = core.Update{A: u.A, B: u.B, Delta: -3 * (1 + u.Delta*u.Delta)}
	}
	run("drain", drain)
	if im.Subscriptions() != 0 {
		t.Fatalf("drained stream left %d subscriptions", im.Subscriptions())
	}
	run("regrow", grow)

	grows, lapses := im.Churn()
	if lapses == 0 {
		t.Error("stream produced no subscription lapses; churn property untested")
	}
	if im.Subscriptions() == 0 {
		t.Error("regrow phase left no subscriptions; regrow property untested")
	}
	t.Logf("churn: %d grows, %d lapses, %d live", grows, lapses, im.Subscriptions())
}

// TestWantsOrientationInvariance: delivery must not depend on the endpoint
// order an update arrives with, for any subscription state.
func TestWantsOrientationInvariance(t *testing.T) {
	router, err := NewRouter(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for shard := 0; shard < 4; shard++ {
		im := NewInterestMap(router, shard)
		// Random subscription state, mutated as we go.
		for i := 0; i < 4000; i++ {
			v := core.Vertex(rng.Intn(64))
			if rng.Intn(2) == 0 {
				im.Observe(v, true)
			} else if im.Subscribed(v) {
				im.Observe(v, false)
			}
			u := graph.Update{A: core.Vertex(rng.Intn(64)), B: core.Vertex(rng.Intn(64)), Delta: rng.NormFloat64()}
			rev := graph.Update{A: u.B, B: u.A, Delta: u.Delta}
			if im.Wants(u) != im.Wants(rev) {
				t.Fatalf("shard %d: Wants(%v) = %v but reversed = %v", shard, u, im.Wants(u), im.Wants(rev))
			}
		}
	}
}

// TestWantsDegenerateUpdates: self-loops and zero deltas are never wanted —
// the full processing path ignores them too.
func TestWantsDegenerateUpdates(t *testing.T) {
	router, err := NewRouter(2)
	if err != nil {
		t.Fatal(err)
	}
	im := NewInterestMap(router, router.Owner(3))
	im.Observe(3, true)
	im.Observe(5, true)
	if im.Wants(graph.Update{A: 3, B: 3, Delta: 1}) {
		t.Error("self-loop wanted")
	}
	if im.Wants(graph.Update{A: 3, B: 5, Delta: 0}) {
		t.Error("zero delta wanted")
	}
	if !im.Wants(graph.Update{A: 5, B: 3, Delta: -1}) {
		t.Error("negative update with both endpoints subscribed not wanted")
	}
	im.Observe(5, false)
	if im.Wants(graph.Update{A: 3, B: 5, Delta: -1}) {
		t.Error("negative update with one lapsed endpoint wanted")
	}
}

// mergedPerSeq replays updates through a sharded engine under the given
// policy and returns the merged stream grouped per sequence number plus the
// final tracked set.
func mergedPerSeq(t *testing.T, k int, ov Overlap, batchSize int, updates []core.Update) (map[uint64][]string, []string) {
	t.Helper()
	se := MustNew(Config{Shards: k, Engine: testEngineCfg, Overlap: ov, BatchSize: batchSize})
	defer se.Close()
	var col seqCollector
	se.SetSeqSink(&col)
	se.ProcessAll(updates)
	se.Flush()
	return perSeqKeys(col.snapshot()), se.OutputDenseKeys()
}

// TestScopedMatchesMirrorRandomStreams is the delivery-equivalence property:
// scoped delivery must produce the mirror stream bit for bit — same events,
// same sequence numbers, same tracked set — across shard counts, batch
// sizes, and random streams with heavy subscription churn.
func TestScopedMatchesMirrorRandomStreams(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("K=%d/seed=%d", k, seed), func(t *testing.T) {
				updates := testStream(seed, 20, 1500, 0.35)
				batch := 1 << (seed % 3) * 16 // 16, 32, 64: vary channel interleavings
				mirrorSeq, mirrorKeys := mergedPerSeq(t, k, OverlapMirror, batch, updates)
				scopedSeq, scopedKeys := mergedPerSeq(t, k, OverlapScoped, batch, updates)
				if !slices.Equal(scopedKeys, mirrorKeys) {
					t.Fatalf("tracked sets diverge: scoped %v != mirror %v", scopedKeys, mirrorKeys)
				}
				if len(scopedSeq) != len(mirrorSeq) {
					t.Fatalf("scoped stream covers %d event-bearing updates, mirror %d", len(scopedSeq), len(mirrorSeq))
				}
				for seq, want := range mirrorSeq {
					if !slices.Equal(scopedSeq[seq], want) {
						t.Fatalf("update %d: scoped %v != mirror %v", seq, scopedSeq[seq], want)
					}
				}
			})
		}
	}
}

// TestScopedMatchesMirrorInterleavedBatches covers the coalesced path: the
// same stream chopped into a random interleaving of Process calls and
// ProcessBatch epochs must merge identically under both policies.
func TestScopedMatchesMirrorInterleavedBatches(t *testing.T) {
	updates := testStream(9, 18, 1200, 0.3)
	run := func(ov Overlap) (map[uint64][]string, []string) {
		se := MustNew(Config{Shards: 3, Engine: testEngineCfg, Overlap: ov, BatchSize: 32})
		defer se.Close()
		var col seqCollector
		se.SetSeqSink(&col)
		rng := rand.New(rand.NewSource(42)) // same chop for both policies
		for i := 0; i < len(updates); {
			if rng.Intn(2) == 0 {
				se.Process(updates[i])
				i++
				continue
			}
			n := 1 + rng.Intn(60)
			if i+n > len(updates) {
				n = len(updates) - i
			}
			se.ProcessBatch(updates[i : i+n])
			i += n
		}
		se.Flush()
		return perSeqKeys(col.snapshot()), se.OutputDenseKeys()
	}
	mirrorSeq, mirrorKeys := run(OverlapMirror)
	scopedSeq, scopedKeys := run(OverlapScoped)
	if !slices.Equal(scopedKeys, mirrorKeys) {
		t.Fatalf("tracked sets diverge: scoped %v != mirror %v", scopedKeys, mirrorKeys)
	}
	if len(scopedSeq) != len(mirrorSeq) {
		t.Fatalf("scoped stream covers %d event-bearing ticks, mirror %d", len(scopedSeq), len(mirrorSeq))
	}
	for seq, want := range mirrorSeq {
		if !slices.Equal(scopedSeq[seq], want) {
			t.Fatalf("tick %d: scoped %v != mirror %v", seq, scopedSeq[seq], want)
		}
	}
}

// TestScopedMatchesMirrorStarHeavy runs the equivalence where scoped delivery
// leans on Engine.StarNeedsPositive: heavy edges among six vertices keep pairs
// and triples too-dense, so every worker holds ImplicitTooDense families,
// while half of the stream lands on far vertices no index path mentions —
// updates a non-seeding worker may skip only if no family can absorb the
// pair, which the star prefilter now answers for most families. Some far
// edges grow heavy enough to be absorbed, so both answers occur.
func TestScopedMatchesMirrorStarHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var updates []core.Update
	for len(updates) < 1500 {
		var u core.Update
		if rng.Intn(2) == 0 {
			u = core.Update{A: core.Vertex(rng.Intn(6)), B: core.Vertex(rng.Intn(6)), Delta: 0.5 + 3*rng.Float64()}
		} else {
			u = core.Update{A: core.Vertex(20 + rng.Intn(20)), B: core.Vertex(20 + rng.Intn(20)), Delta: 0.2 + 2*rng.Float64()}
		}
		if rng.Intn(4) == 0 {
			u.Delta = -2 * u.Delta
		}
		if u.A != u.B {
			updates = append(updates, u)
		}
	}
	run := func(ov Overlap) (map[uint64][]string, []string, Stats) {
		se := MustNew(Config{Shards: 3, Engine: testEngineCfg, Overlap: ov, BatchSize: 16})
		defer se.Close()
		var col seqCollector
		se.SetSeqSink(&col)
		chop := rand.New(rand.NewSource(5)) // same chop for both policies
		for i := 0; i < len(updates); {
			if chop.Intn(2) == 0 {
				se.Process(updates[i])
				i++
				continue
			}
			n := min(1+chop.Intn(12), len(updates)-i)
			se.ProcessBatch(updates[i : i+n])
			i += n
		}
		se.Flush()
		return perSeqKeys(col.snapshot()), se.OutputDenseKeys(), se.Stats()
	}
	mirrorSeq, mirrorKeys, mirrorStats := run(OverlapMirror)
	scopedSeq, scopedKeys, scopedStats := run(OverlapScoped)
	if mirrorStats.Aggregate.StarInsertions < 10 {
		t.Fatalf("stream is not star-heavy: %d families created", mirrorStats.Aggregate.StarInsertions)
	}
	if f := scopedStats.MeanDeliveryFraction(); f >= 1 {
		t.Fatalf("scoped delivery skipped nothing (fraction %v)", f)
	}
	if !slices.Equal(scopedKeys, mirrorKeys) {
		t.Fatalf("tracked sets diverge: scoped %v != mirror %v", scopedKeys, mirrorKeys)
	}
	if len(scopedSeq) != len(mirrorSeq) {
		t.Fatalf("scoped stream covers %d event-bearing ticks, mirror %d", len(scopedSeq), len(mirrorSeq))
	}
	for seq, want := range mirrorSeq {
		if !slices.Equal(scopedSeq[seq], want) {
			t.Fatalf("tick %d: scoped %v != mirror %v", seq, scopedSeq[seq], want)
		}
	}
}

// TestScopedDeliversLess is the point of the policy: on a workload with real
// skips, scoped delivery must deliver strictly fewer work units than mirror
// while producing the identical output (checked above); mirror must deliver
// everything.
func TestScopedDeliversLess(t *testing.T) {
	updates := testStream(5, 200, 3000, 0.1)
	run := func(ov Overlap) Stats {
		se := MustNew(Config{Shards: 4, Engine: core.Config{T: 4, Nmax: 5}, Overlap: ov})
		defer se.Close()
		se.ProcessAll(updates)
		se.Flush()
		return se.Stats()
	}
	mirror := run(OverlapMirror)
	scoped := run(OverlapScoped)
	if got := mirror.MeanDeliveryFraction(); got != 1.0 {
		t.Fatalf("mirror mean delivery fraction = %v, want 1.0", got)
	}
	if got := scoped.MeanDeliveryFraction(); got >= 0.9 {
		t.Fatalf("scoped mean delivery fraction = %v, want a real reduction", got)
	}
	for _, l := range scoped.Loads {
		if l.Delivered+l.Applied != mirror.Loads[l.Shard].Delivered {
			t.Fatalf("shard %d: delivered+applied = %d does not cover mirror's %d work units",
				l.Shard, l.Delivered+l.Applied, mirror.Loads[l.Shard].Delivered)
		}
	}
}

// FuzzScopedDelivery fuzzes the equivalence: any update stream decoded from
// the fuzz input must produce identical tracked sets and merged streams under
// scoped and mirror delivery. Crashes or divergence are both failures.
func FuzzScopedDelivery(f *testing.F) {
	f.Add([]byte{1, 2, 30, 2, 3, 40, 1, 3, 50, 2, 3, 0x85, 1, 2, 60})
	f.Add([]byte{0, 1, 255, 0, 2, 255, 1, 2, 255, 0, 3, 255, 2, 3, 255, 1, 3, 255})
	f.Add([]byte{9, 9, 10, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var updates []core.Update
		for i := 0; i+2 < len(data); i += 3 {
			delta := float64(data[i+2] & 0x7f)
			if data[i+2]&0x80 != 0 {
				delta = -delta
			}
			updates = append(updates, core.Update{
				A:     core.Vertex(data[i] % 16),
				B:     core.Vertex(data[i+1] % 16),
				Delta: delta / 8,
			})
		}
		if len(updates) == 0 {
			return
		}
		mirrorSeq, mirrorKeys := mergedPerSeq(t, 3, OverlapMirror, 4, updates)
		scopedSeq, scopedKeys := mergedPerSeq(t, 3, OverlapScoped, 4, updates)
		if !slices.Equal(scopedKeys, mirrorKeys) {
			t.Fatalf("tracked sets diverge: scoped %v != mirror %v", scopedKeys, mirrorKeys)
		}
		for seq, want := range mirrorSeq {
			if !slices.Equal(scopedSeq[seq], want) {
				t.Fatalf("update %d: scoped %v != mirror %v", seq, scopedSeq[seq], want)
			}
		}
		for seq := range scopedSeq {
			if _, ok := mirrorSeq[seq]; !ok {
				t.Fatalf("update %d: scoped emitted events mirror did not", seq)
			}
		}
	})
}
