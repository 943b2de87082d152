package core

// maxExploreCaps returns maxExplore_a and maxExplore_b, the MaxExplore
// heuristic's bounds (Section 7.1) for the current positive update. They
// derive, from the neighbourhoods of the two updated endpoints alone, an upper
// bound on the cardinality of newly-dense subgraphs that can require
// explore-based (as opposed to cheap-explore-based) discovery: exploration
// around subgraphs at or beyond min(maxExplore_a, maxExplore_b) can be skipped
// without affecting correctness.
//
// The caps are computed on first use within the update — the graph does not
// change while an update is processed — and only an attempt that is still
// open asks: a cheap-exploration whose union fits Nmax and is not indexed, or
// an exploration its node's reach certificate did not settle. Around a live
// story those O(1) exits settle nearly every attempt, so most positive updates
// never pay for the two neighbourhood passes. When the heuristic is disabled
// the caps sit past Nmax so they never restrict anything.
func (e *Engine) maxExploreCaps() (capA, capB int) {
	if !e.maxExploreKnown {
		e.maxExploreKnown = true
		e.maxExploreA, e.maxExploreB = e.th.Nmax+1, e.th.Nmax+1
		if e.cfg.EnableMaxExplore {
			// Z = 2·(g_Nmax·T + δ_it/(Nmax−1)).
			gNmax := e.th.S(e.th.Nmax) / (float64(e.th.Nmax) * float64(e.th.Nmax-1))
			z := 2 * (gNmax*e.th.T + e.th.DeltaIt/float64(e.th.Nmax-1))
			wAfter := e.g.Weight(e.a, e.b)
			e.maxExploreA = e.maxExploreFor(e.b, e.a, wAfter, z)
			e.maxExploreB = e.maxExploreFor(e.a, e.b, wAfter, z)
		}
	}
	return e.maxExploreA, e.maxExploreB
}

// maxExploreFor computes maxExplore_x where x is the endpoint whose
// stable-dense subgraphs are guaranteed to underlie large newly-dense
// subgraphs; other is the opposite endpoint (whose neighbourhood bounds the
// contribution it can make to any subgraph's score).
//
// best(0) = w_ab after the update; best(i) for i ≥ 1 is the i-th largest
// weight among other's edges excluding the one to x; top(i) = Σ_{j≤i} best(j).
// maxExplore_x = min{ i ∈ [3, Nmax] : top(i−1) ≤ Z·(i−1) − δ_it ∧ best(i) < Z },
// or Nmax+1 if no such i exists.
//
// Only best(1..Nmax) are ever read, so one pass over the neighbourhood keeps
// the Nmax largest weights, in decreasing order, in an engine-owned scratch
// slice: nearly every weight fails the comparison with the smallest kept one.
func (e *Engine) maxExploreFor(other, x Vertex, wAfter, z float64) int {
	nmax := e.th.Nmax
	vs, ws := e.g.Neighborhood(other)
	largest := e.weightsBuf[:0]
	for i, v := range vs {
		w := ws[i]
		if v == x || (len(largest) == nmax && w <= largest[nmax-1]) {
			continue
		}
		if len(largest) < nmax {
			largest = append(largest, w)
		}
		j := len(largest) - 1
		for ; j > 0 && largest[j-1] < w; j-- {
			largest[j] = largest[j-1]
		}
		largest[j] = w
	}
	e.weightsBuf = largest

	best := func(i int) float64 {
		if i == 0 {
			return wAfter
		}
		if i <= len(largest) {
			return largest[i-1] // i-th largest
		}
		return 0
	}
	top := wAfter // top(0)
	for i := 1; i <= nmax; i++ {
		top += best(i)
		if i+1 < 3 {
			continue
		}
		cand := i + 1 // candidate value of maxExplore_x, with top(cand−1) = top
		if cand > nmax {
			break
		}
		if top <= z*float64(cand-1)-e.th.DeltaIt && best(cand) < z {
			return cand
		}
	}
	return nmax + 1
}
