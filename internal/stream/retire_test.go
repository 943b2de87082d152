package stream

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestRetireQueueMatchesReference drives the two-part retirement queue and a
// plain list in lockstep: first-time entries in non-increasing expiry order
// (with an occasional out-of-order one, which must land in the heap), heap
// pushes at random scales, and ticks at a falling λ that pop every entry
// above it. Each tick must pop exactly the reference's due entries, largest
// first, and both parts must give their capacity back once drained.
func TestRetireQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q retireQueue
		var ref []retireEntry
		next := pairKey(1)
		lambda, first := 1.0, 1.0
		for step := 0; step < 3000; step++ {
			// A burst in the first thousand steps, then mostly ticks.
			pushes := rng.Intn(8)
			if step < 1000 {
				pushes += 20
			}
			for range pushes {
				e := retireEntry{key: next, expLambda: lambda * rng.Float64()}
				next++
				switch r := rng.Float64(); {
				case r < 0.6:
					e.expLambda = first
					if rng.Float64() < 0.02 {
						e.expLambda = first * 1.5 // out of order: must go to the heap
					}
					q.pushFirst(e.key, e.expLambda)
				default:
					q.push(e)
				}
				ref = append(ref, e)
			}
			if rng.Float64() < 0.3 {
				first *= 0.97 // the next epoch's first-time scale
			}
			lambda *= 0.99
			slices.SortFunc(ref, func(x, y retireEntry) int { return cmp.Compare(y.expLambda, x.expLambda) })
			n := 0
			for n < len(ref) && ref[n].expLambda > lambda {
				n++
			}
			var got []retireEntry
			for {
				e, due := q.popDue(lambda)
				if !due {
					break
				}
				got = append(got, e)
			}
			if len(got) != n {
				t.Fatalf("seed %d step %d: popped %d entries, want %d", seed, step, len(got), n)
			}
			for i := 1; i < len(got); i++ {
				if got[i].expLambda > got[i-1].expLambda {
					t.Fatalf("seed %d step %d: pop %d has scale %v above the one before, %v", seed, step, i, got[i].expLambda, got[i-1].expLambda)
				}
			}
			key := func(x, y retireEntry) int { return cmp.Compare(x.key, y.key) }
			slices.SortFunc(got, key)
			want := slices.SortedFunc(slices.Values(ref[:n]), key)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: popped %v, want %v", seed, step, got, want)
			}
			ref = ref[n:]
			if q.len() != len(ref) {
				t.Fatalf("seed %d step %d: %d queued, want %d", seed, step, q.len(), len(ref))
			}
		}
		for {
			if _, due := q.popDue(0); !due {
				break
			}
		}
		if q.len() != 0 || len(q.ring) > retireMinCap || cap(q.heap) > 2*retireMinCap {
			t.Fatalf("seed %d: drained queue keeps %d entries, a ring of %d and a heap of capacity %d", seed, q.len(), len(q.ring), cap(q.heap))
		}
	}
}
