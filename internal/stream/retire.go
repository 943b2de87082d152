package stream

import (
	"cmp"
	"math"
	"slices"
)

// retireEntry is one lazy-retirement entry: the pair expires once the
// cumulative scale λ drops below expLambda. Entries are only ever stale-HIGH
// (later additions grow w' and shrink the true expiry scale), so they fire
// early and are verified against the authoritative weight on pop — never
// late, which is what keeps lazy retirement equivalent to sweeping every pair
// each epoch.
type retireEntry struct {
	key       pairKey
	expLambda float64
}

// expiryRun is a run of consecutive first-time entries sharing one expiry
// scale: the n next keys of the arrival queue.
type expiryRun struct {
	expLambda float64
	n         int
}

// retireQueue holds one retirement entry per tracked pair, in two parts.
//
// A pair enters at the real weight DocWeight, so its first entry's expiry
// scale depends on λ alone, and λ only falls (a fold rescales every entry
// alike): first-time entries arrive in non-increasing expiry-scale order.
// They wait as bare pair keys in an arrival-order ring, with one
// (expiry scale, count) run per pushing epoch, so the common entry costs 8
// bytes and its pop is O(1). Re-keyed entries — and every restored one —
// live in a max-heap on expLambda. A pop takes the larger of the two heads,
// so the two parts pop as one max-queue would.
//
// Both parts give memory back: the ring halves below a quarter full, and so
// does the heap's backing array.
type retireQueue struct {
	heap []retireEntry // max-heap on expLambda

	ring    []pairKey // first-time keys: ring[(head+i)&(len(ring)-1)] for i < n
	head    int
	n       int
	runs    []expiryRun // runs[runHead:] partition the ring's n keys, in order
	runHead int
}

// retireMinCap is the smallest capacity the ring and the heap shrink to.
const retireMinCap = 64

// len returns the number of queued entries.
func (q *retireQueue) len() int { return len(q.heap) + q.n }

// pushFirst queues a pair's first entry. An expiry scale above the last
// run's — which the non-increasing arrival order rules out, but which costs
// nothing to allow — goes to the heap instead.
func (q *retireQueue) pushFirst(k pairKey, exp float64) {
	tail := len(q.runs) - 1
	switch {
	case tail >= q.runHead && exp > q.runs[tail].expLambda:
		q.push(retireEntry{key: k, expLambda: exp})
		return
	case tail >= q.runHead && exp == q.runs[tail].expLambda:
		q.runs[tail].n++
	default:
		q.runs = append(q.runs, expiryRun{expLambda: exp, n: 1})
	}
	if q.n == len(q.ring) {
		q.resizeRing(max(retireMinCap, 2*len(q.ring)))
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = k
	q.n++
}

// popDue removes and returns the entry with the largest expiry scale if that
// scale is above lambda.
func (q *retireQueue) popDue(lambda float64) (retireEntry, bool) {
	fresh := q.runHead < len(q.runs) && q.runs[q.runHead].expLambda > lambda
	heaped := len(q.heap) > 0 && q.heap[0].expLambda > lambda
	switch {
	case fresh && (!heaped || q.runs[q.runHead].expLambda >= q.heap[0].expLambda):
		return q.popFirst(), true
	case heaped:
		return q.heapPop(), true
	}
	return retireEntry{}, false
}

// popFirst removes the oldest first-time entry.
func (q *retireQueue) popFirst() retireEntry {
	r := &q.runs[q.runHead]
	e := retireEntry{key: q.ring[q.head], expLambda: r.expLambda}
	if r.n--; r.n == 0 {
		if q.runHead++; q.runHead*2 >= len(q.runs) {
			q.runs = q.runs[:copy(q.runs, q.runs[q.runHead:])]
			q.runHead = 0
		}
	}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	if q.n--; len(q.ring) > retireMinCap && q.n*4 < len(q.ring) {
		q.resizeRing(len(q.ring) / 2)
	}
	return e
}

// resizeRing moves the ring's keys, in order, into a ring of size slots (a
// power of two, at least n).
func (q *retireQueue) resizeRing(size int) {
	ring := make([]pairKey, size)
	for i := range q.n {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}

// ldexp multiplies every expiry scale by 2^k: exact, and uniform, so both
// parts keep their order.
func (q *retireQueue) ldexp(k int) {
	for i := range q.heap {
		q.heap[i].expLambda = math.Ldexp(q.heap[i].expLambda, k)
	}
	for i := q.runHead; i < len(q.runs); i++ {
		q.runs[i].expLambda = math.Ldexp(q.runs[i].expLambda, k)
	}
}

// entries returns every queued entry, in descending expiry scale (ties by
// ascending pair key): a canonical order, and a valid max-heap.
func (q *retireQueue) entries() []retireEntry {
	out := make([]retireEntry, 0, q.len())
	out = append(out, q.heap...)
	i := 0
	for _, r := range q.runs[q.runHead:] {
		for range r.n {
			out = append(out, retireEntry{key: q.ring[(q.head+i)&(len(q.ring)-1)], expLambda: r.expLambda})
			i++
		}
	}
	slices.SortFunc(out, func(x, y retireEntry) int {
		if c := cmp.Compare(y.expLambda, x.expLambda); c != 0 {
			return c
		}
		return cmp.Compare(x.key, y.key)
	})
	return out
}

// push inserts an entry into the max-heap on expLambda. The heap is
// hand-rolled on the slice (rather than container/heap) to keep epoch ticks
// free of interface boxing allocations.
func (q *retireQueue) push(e retireEntry) {
	q.heap = append(q.heap, e)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.heap[parent].expLambda >= q.heap[i].expLambda {
			break
		}
		q.heap[parent], q.heap[i] = q.heap[i], q.heap[parent]
		i = parent
	}
}

// heapPop removes and returns the heap entry with the largest expiry scale,
// then halves the backing array if it has fallen below a quarter full.
func (q *retireQueue) heapPop() retireEntry {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i, n := 0, last; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		big := l
		if r := l + 1; r < n && h[r].expLambda > h[l].expLambda {
			big = r
		}
		if h[i].expLambda >= h[big].expLambda {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	if cap(h) > retireMinCap && len(h)*4 < cap(h) {
		h = append(make([]retireEntry, 0, cap(h)/2), h...)
	}
	q.heap = h
	return top
}
