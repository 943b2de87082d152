package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
)

// The input generators are owned by the benchmark: a later change to the
// program's own synthetic sources (stream.NewSynthetic, NewDocSynthetic)
// cannot move a workload. Both are pure functions of (seed, size).

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// ---------------------------------------------------------------------------
// Raw edge updates: a sliding window with exact cancellation.
// ---------------------------------------------------------------------------

// Raw-stream constants (see README "Regime cliffs" for why these values).
const (
	rawWindow       = 1200  // insertions an edge contribution stays in the graph
	rawGroups       = 18    // concurrently active planted groups
	rawBackground   = 5000  // uniform background vertices
	rawGroupSize    = 5     // vertices per planted group
	rawGroupLife    = 10000 // insertions a group lives (≈ 20k updates)
	rawDeltaSteps   = 17    // δ = k/8, k uniform in 1..17: mean 1.125, exact in float64
	rawT            = 3.0
	rawNmax         = 5
	rawWarmupUpdate = 2*rawGroupLife + 2*rawWindow
)

// genRaw returns the update stream of nIns insertions — insertion i is
// followed, from i = rawWindow on, by the exact cancellation of insertion
// i−rawWindow — and the drain: the cancellations of the last rawWindow
// insertions, after which every edge weight is back at exactly zero.
func genRaw(seed uint64, nIns int) (updates, drain []Update) {
	rng := newRNG(seed, 1)
	updates = make([]Update, 0, 2*nIns)
	ring := make([]Update, rawWindow)
	var groups [rawGroups][rawGroupSize]int32
	next := int32(rawBackground)
	fresh := func(g int) {
		for i := range groups[g] {
			groups[g][i] = next
			next++
		}
	}
	for g := range groups {
		fresh(g)
	}
	replaceEvery := rawGroupLife / rawGroups
	for i := 0; i < nIns; i++ {
		if i > 0 && i%replaceEvery == 0 {
			fresh((i / replaceEvery) % rawGroups)
		}
		var a, b int32
		if rng.IntN(2) == 0 {
			g := &groups[rng.IntN(rawGroups)]
			x := rng.IntN(rawGroupSize)
			y := rng.IntN(rawGroupSize - 1)
			if y >= x {
				y++
			}
			a, b = g[x], g[y]
		} else {
			a = int32(rng.IntN(rawBackground))
			b = int32(rng.IntN(rawBackground - 1))
			if b >= a {
				b++
			}
		}
		u := Update{A: a, B: b, Delta: float64(1+rng.IntN(rawDeltaSteps)) / 8}
		updates = append(updates, u)
		slot := i % rawWindow
		if i >= rawWindow {
			old := ring[slot]
			old.Delta = -old.Delta
			updates = append(updates, old)
		}
		ring[slot] = u
	}
	for i := max(0, nIns-rawWindow); i < nIns; i++ {
		old := ring[i%rawWindow]
		old.Delta = -old.Delta
		drain = append(drain, old)
	}
	return updates, drain
}

// ---------------------------------------------------------------------------
// Documents: a birth–death process of planted stories over background chatter.
// ---------------------------------------------------------------------------

// docParams shapes a document stream. Document i carries timestamp i, so the
// aggregator's epoch length is a number of documents.
type docParams struct {
	Active        int     // planted stories alive at any time (a death is replaced at once)
	MeanLife      float64 // mean story lifetime in documents (geometric in steps of MeanLife/Active)
	MinSize       int     // entities per story, uniform in [MinSize, MaxSize]
	MaxSize       int
	StoryFrac     float64 // share of documents that belong to a story
	StoryMentions int     // story entities mentioned per story document
	NoiseProb     float64 // probability a story document also mentions one background entity
	BgEntities    int     // background universe
	BgMentions    int     // entities per background document
	BgExponent    float64 // popularity ∝ 1/rank^exponent …
	BgHeadCap     int     // … with every rank below the cap as popular as the cap
}

// plantedStory is the ground truth the recall check scores against.
type plantedStory struct {
	Entities []int32 // sorted
	Start    int     // first document index the story may appear in
	End      int     // one past the last (len(docs) while still alive)
}

// docInput is a generated document stream in the text format
// stream.DocFileSource reads (`time e1 e2 ...`, one per line).
type docInput struct {
	Text    []byte
	LineEnd []uint32 // LineEnd[i] = offset one past document i's newline
	Planted []plantedStory
}

type liveStory struct {
	ents     []int32
	weight   float64 // pairs among the entities: a story's share of the story documents is ∝ weight, so every planted pair sees the same rate
	credit   float64 // deficit round-robin credit: the story with the most credit writes the next story document
	mentions [][]int // every StoryMentions-subset of the entity indices, shuffled; documents cycle through them
	next     int
	idx      int // index into Planted
}

// subsets appends every m-subset of {0..k-1} to out.
func subsets(k, m int) [][]int {
	var out [][]int
	cur := make([]int, 0, m)
	var rec func(from int)
	rec = func(from int) {
		if len(cur) == m {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := from; i < k; i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

func genDocs(seed uint64, n int, p docParams) *docInput {
	rng := newRNG(seed, 2)
	out := &docInput{Text: make([]byte, 0, n*26), LineEnd: make([]uint32, 0, n)}

	// Background popularity CDF.
	cdf := make([]float64, p.BgEntities)
	sum := 0.0
	for r := 0; r < p.BgEntities; r++ {
		sum += math.Pow(float64(max(r+1, p.BgHeadCap)), -p.BgExponent)
		cdf[r] = sum
	}
	background := func() int32 {
		return int32(sort.SearchFloat64s(cdf, rng.Float64()*sum))
	}

	nextEntity := int32(p.BgEntities)
	live := make([]liveStory, 0, p.Active)
	totalWeight := 0.0
	birth := func(at, k int) liveStory {
		// Entities are fresh: stories never share an entity (a shared pair
		// would carry twice the weight and pull arbitrary background entities
		// into too-dense supersets; README "Regime cliffs").
		ents := make([]int32, k)
		for j := range ents {
			ents[j] = nextEntity
			nextEntity++
		}
		out.Planted = append(out.Planted, plantedStory{Entities: ents, Start: at, End: n})
		ms := subsets(k, p.StoryMentions)
		rng.Shuffle(len(ms), func(a, b int) { ms[a], ms[b] = ms[b], ms[a] })
		return liveStory{
			ents: ents, weight: float64(k * (k - 1) / 2), credit: rng.Float64(),
			mentions: ms, idx: len(out.Planted) - 1,
		}
	}
	for len(live) < p.Active {
		// Sizes rotate over the first generation …
		s := birth(0, p.MinSize+len(live)%(p.MaxSize-p.MinSize+1))
		live = append(live, s)
		totalWeight += s.weight
	}

	// Deaths: every MeanLife/Active documents one live story, picked at
	// random, ends and is replaced at once by one of its own size. Lifetimes
	// are geometric with mean MeanLife, Active and the mix of sizes stay
	// constant — a six-entity story costs the engine several times what a
	// four-entity one does, and a mix that drifted with the seed made the
	// work per document differ by 10 % from seed to seed — and births, the
	// expensive moments of the pipeline, are evenly spread over the stream.
	deathEvery := max(1, int(p.MeanLife)/p.Active)
	mention := make([]int32, 0, 8)
	for i := 0; i < n; i++ {
		if i > 0 && i%deathEvery == 0 {
			s := rng.IntN(len(live))
			out.Planted[live[s].idx].End = i
			totalWeight -= live[s].weight
			live[s] = birth(i, len(live[s].ents))
			totalWeight += live[s].weight
		}
		mention = mention[:0]
		if rng.Float64() < p.StoryFrac {
			// Deficit round-robin: every story earns credit in proportion to
			// its weight and the richest one writes the document, cycling
			// through its mention subsets. Planted pair weights therefore rise
			// smoothly instead of with Poisson noise: a story enters and leaves
			// the output once instead of flapping around the threshold.
			s := 0
			for j := range live {
				live[j].credit += live[j].weight / totalWeight
				if live[j].credit > live[s].credit {
					s = j
				}
			}
			st := &live[s]
			st.credit--
			for _, j := range st.mentions[st.next%len(st.mentions)] {
				mention = append(mention, st.ents[j])
			}
			st.next++
			if rng.Float64() < p.NoiseProb {
				mention = append(mention, background())
			}
		} else {
			for len(mention) < p.BgMentions {
				e := background()
				dup := false
				for _, m := range mention {
					dup = dup || m == e
				}
				if !dup {
					mention = append(mention, e)
				}
			}
		}
		out.Text = strconv.AppendInt(out.Text, int64(i), 10)
		for _, e := range mention {
			out.Text = append(out.Text, ' ')
			out.Text = strconv.AppendInt(out.Text, int64(e), 10)
		}
		out.Text = append(out.Text, '\n')
		out.LineEnd = append(out.LineEnd, uint32(len(out.Text)))
	}
	return out
}
