// Package density defines subgraph density measures and the per-cardinality
// threshold schedule that DynDens maintains dense subgraphs against.
//
// A subgraph C has density dens(C) = score(C) / S(|C|), where score(C) is the
// total internal edge weight and S(n) quantifies the relative importance of
// cardinality. The paper requires the monotonicity property
//
//	n/(n-1) ≤ S(n)/S(n-1) ≤ n/(n-2)
//
// which all instantiations here satisfy. The normalised form g(n) =
// S(n)/(n(n-1)) is non-increasing in n.
//
// DynDens maintains all subgraphs with dens(C) ≥ T_{|C|}, where T_n is the
// threshold schedule of Eq. 8 of the paper, parameterised by the user density
// threshold T, the maximum cardinality Nmax and the tuning knob δ_it. T_Nmax
// equals T and T_n·g_n is strictly increasing in n, which yields the growth
// property the algorithm relies on.
package density

import (
	"errors"
	"fmt"
	"math"
)

// Measure is a cardinality-normalisation function S_n defining a notion of
// graph density dens(C) = score(C)/S(|C|).
type Measure interface {
	// Name returns a short identifier (used in experiment output).
	Name() string
	// S returns S(n) for n ≥ 2. Implementations may return arbitrary values
	// for n < 2; callers never ask.
	S(n int) float64
}

// G returns the normalised measure g(n) = S(n)/(n·(n-1)).
func G(m Measure, n int) float64 {
	return m.S(n) / (float64(n) * float64(n-1))
}

// Density returns score/S(n), the density of a subgraph with the given
// internal score and cardinality. It returns 0 for n < 2.
func Density(m Measure, score float64, n int) float64 {
	if n < 2 {
		return 0
	}
	return score / m.S(n)
}

// Built-in measures from the paper.

type avgWeight struct{}

// AvgWeight is S_n = n(n-1)/2: density is the average edge weight, favouring
// small, well-connected subgraphs.
var AvgWeight Measure = avgWeight{}

func (avgWeight) Name() string    { return "AvgWeight" }
func (avgWeight) S(n int) float64 { return float64(n) * float64(n-1) / 2 }

type avgDegree struct{}

// AvgDegree is S_n = n: density is a generalised average node degree,
// favouring large subgraphs.
var AvgDegree Measure = avgDegree{}

func (avgDegree) Name() string    { return "AvgDegree" }
func (avgDegree) S(n int) float64 { return float64(n) }

type sqrtDens struct{}

// SqrtDens is S_n = sqrt(n(n-1)), lying between AvgWeight and AvgDegree.
var SqrtDens Measure = sqrtDens{}

func (sqrtDens) Name() string    { return "SqrtDens" }
func (sqrtDens) S(n int) float64 { return math.Sqrt(float64(n) * float64(n-1)) }

// ValidateMeasure checks the paper's monotonicity requirement
// n/(n-1) ≤ S(n)/S(n-1) ≤ n/(n-2) for all 3 ≤ n ≤ nmax, plus positivity.
func ValidateMeasure(m Measure, nmax int) error {
	const eps = 1e-9
	if nmax < 2 {
		return fmt.Errorf("density: nmax must be ≥ 2, got %d", nmax)
	}
	if m.S(2) <= 0 {
		return fmt.Errorf("density: %s has non-positive S(2)=%v", m.Name(), m.S(2))
	}
	for n := 3; n <= nmax; n++ {
		sn, sn1 := m.S(n), m.S(n-1)
		if sn <= 0 {
			return fmt.Errorf("density: %s has non-positive S(%d)=%v", m.Name(), n, sn)
		}
		ratio := sn / sn1
		lo := float64(n) / float64(n-1)
		hi := float64(n) / float64(n-2)
		if ratio < lo-eps || ratio > hi+eps {
			return fmt.Errorf("density: %s violates monotonicity at n=%d: S(n)/S(n-1)=%.6f not in [%.6f, %.6f]",
				m.Name(), n, ratio, lo, hi)
		}
	}
	return nil
}

// Errors returned by NewThresholds.
var (
	ErrBadNmax      = errors.New("density: Nmax must be at least 2")
	ErrBadThreshold = errors.New("density: threshold T must be positive and finite")
	ErrBadDeltaIt   = errors.New("density: delta_it outside its validity range")
)

// Thresholds is the instantiated threshold schedule T_n (Eq. 8) for a given
// (Measure, T, Nmax, δ_it) combination, along with the classification
// predicates used throughout DynDens.
type Thresholds struct {
	Measure Measure
	T       float64 // output-density threshold (= T_Nmax)
	Nmax    int     // maximum cardinality of subgraphs of interest
	DeltaIt float64 // δ_it: tunable space/time trade-off parameter

	// tn[n] caches T_n for 2 ≤ n ≤ Nmax+1; sn[n] caches S(n); minScore[n]
	// caches S(n)·T_n, the minimum score for a dense subgraph of cardinality
	// n. denseFloor[n] and outputFloor[n] are the bounds the predicates
	// actually compare against: minScore[n] and S(n)·T lowered by the
	// comparison tolerance, computed once instead of on every classification.
	// The five share tab, which Normalize rewrites in place.
	tab         []float64
	tn          []float64
	sn          []float64
	minScore    []float64
	denseFloor  []float64
	outputFloor []float64
}

// MaxDeltaIt returns the upper end of the validity range for δ_it given a
// measure, threshold and Nmax (Section 4.1.3):
//
//	δ_it < S(Nmax)·T / (Nmax·(Nmax−2))  =  g(Nmax)·T·(Nmax−1)/(Nmax−2)
//
// For Nmax = 2 every positive δ_it is valid and +Inf is returned.
func MaxDeltaIt(m Measure, t float64, nmax int) float64 {
	if nmax <= 2 {
		return math.Inf(1)
	}
	return m.S(nmax) * t / (float64(nmax) * float64(nmax-2))
}

// NewThresholds validates the parameters and precomputes the schedule.
// deltaIt must lie in (0, MaxDeltaIt); the paper recommends values well below
// the upper end (its experiments use 1%–50% of the maximum). The range checks
// are written so that NaN fails them.
func NewThresholds(m Measure, t float64, nmax int, deltaIt float64) (*Thresholds, error) {
	if nmax < 2 {
		return nil, ErrBadNmax
	}
	if err := checkThreshold(t); err != nil {
		return nil, err
	}
	if err := ValidateMeasure(m, nmax); err != nil {
		return nil, err
	}
	if err := checkSchedule(m, t, nmax, deltaIt); err != nil {
		return nil, err
	}
	th := &Thresholds{Measure: m, T: t, Nmax: nmax, DeltaIt: deltaIt}
	th.precompute()
	return th, nil
}

// Normalize writes into dst the schedule th has in the units of a cumulative
// decay scale s, where a weight w is held as w/s: T and δ_it divided by s,
// bit for bit NewThresholds(th.Measure, th.T/s, th.Nmax, th.DeltaIt/s),
// reusing dst's tables. It is the threshold move of rescaled decay (Section
// 6 with Algorithm 3's proportional δ_it), and it allocates nothing once dst
// has held a schedule of the same Nmax. Every check that depends on the
// threshold runs; the measure's, which does not, ran when th was built. On
// error dst is left as it was, so dst may be th itself. A function of s
// alone, it commutes exactly with a power-of-two relabel: Normalize(s·2^-k)
// is Normalize(s) with every bound multiplied by 2^k, bit for bit.
func (th *Thresholds) Normalize(dst *Thresholds, s float64) error {
	return dst.set(th.Measure, th.T/s, th.Nmax, th.DeltaIt/s)
}

// set checks and installs a schedule moved to threshold t and δ_it dit.
func (th *Thresholds) set(m Measure, t float64, nmax int, dit float64) error {
	if err := checkThreshold(t); err != nil {
		return err
	}
	if err := checkSchedule(m, t, nmax, dit); err != nil {
		return err
	}
	th.Measure, th.T, th.Nmax, th.DeltaIt = m, t, nmax, dit
	th.precompute()
	return nil
}

// foldBelow is the smallest decay scale held unfolded, leaving ~150 orders of
// magnitude of float64 headroom on the normalized weights and threshold.
const foldBelow = 1e-150

// Fold decides when state in the normalized units of a decay scale s is
// relabelled: below foldBelow it splits s into m·2^k, m in [½, 1), and the
// holder multiplies every stored weight by 2^k — exact — and carries on at
// scale m; otherwise k is 0. The aggregator and the engine both call it on
// the scale a threshold unit carries, so they fold at the same unit by the
// same power of two without a word passing between them.
func Fold(s float64) (m float64, k int) {
	if !(s < foldBelow) {
		return s, 0
	}
	return math.Frexp(s)
}

// checkThreshold rejects an output threshold that is not positive and
// finite, NaN included.
func checkThreshold(t float64) error {
	if !(t > 0) || math.IsInf(t, 1) {
		return ErrBadThreshold
	}
	return nil
}

// checkSchedule checks what the threshold T decides about the schedule: δ_it
// lies in (0, MaxDeltaIt), every T_n is positive, and the growth property
// T_n·g_n > T_{n-1}·g_{n-1} holds. It computes T_n as precompute does, so it
// checks exactly the values precompute stores.
func checkSchedule(m Measure, t float64, nmax int, deltaIt float64) error {
	if !(deltaIt > 0 && deltaIt < MaxDeltaIt(m, t, nmax)) {
		return fmt.Errorf("%w: δ_it=%v, valid range (0, %v)", ErrBadDeltaIt, deltaIt, MaxDeltaIt(m, t, nmax))
	}
	prev := 0.0 // T_{n-1}·g_{n-1}
	for n := 2; n <= nmax; n++ {
		tn := scheduleTn(m, t, nmax, deltaIt, n)
		if tn <= 0 {
			return fmt.Errorf("%w: T_%d = %v ≤ 0", ErrBadDeltaIt, n, tn)
		}
		cur := tn * G(m, n)
		if n > 2 && cur <= prev {
			return fmt.Errorf("density: growth property violated at n=%d (T_n·g_n not increasing)", n)
		}
		prev = cur
	}
	return nil
}

// scheduleTn returns T_n of Eq. 8 for 2 ≤ n ≤ Nmax+1. By construction
// T_Nmax = T exactly; it is pinned to avoid rounding drift.
func scheduleTn(m Measure, t float64, nmax int, deltaIt float64, n int) float64 {
	if n == nmax {
		return t
	}
	tail := float64(nmax-2) / float64(nmax-1)
	return (G(m, nmax)*t + deltaIt*(float64(n-2)/float64(n-1)-tail)) / G(m, n)
}

// precompute fills the tables from Measure, T, Nmax and DeltaIt, in the
// storage they already have when it is large enough.
func (th *Thresholds) precompute() {
	m, t, nmax, dit := th.Measure, th.T, th.Nmax, th.DeltaIt
	k := nmax + 2
	if len(th.tab) != 5*k {
		th.tab = make([]float64, 5*k) // the five tables share one allocation
	}
	tab := th.tab
	th.tn, th.sn, th.minScore = tab[:k:k], tab[k:2*k:2*k], tab[2*k:3*k:3*k]
	th.denseFloor, th.outputFloor = tab[3*k:4*k:4*k], tab[4*k:]
	for n := 2; n <= nmax+1; n++ {
		th.sn[n] = m.S(n)
		th.tn[n] = scheduleTn(m, t, nmax, dit, n)
		th.minScore[n] = th.sn[n] * th.tn[n]
	}
	for n := 2; n <= nmax+1; n++ {
		th.denseFloor[n] = tolerantBound(th.minScore[n])
		th.outputFloor[n] = tolerantBound(th.sn[n] * t)
	}
}

// S returns S(n) for the configured measure.
func (th *Thresholds) S(n int) float64 {
	if n >= 2 && n < len(th.sn) {
		return th.sn[n]
	}
	return th.Measure.S(n)
}

// MinDenseScore returns S(n)·T_n, the minimum internal score for a subgraph
// of cardinality n to be dense.
func (th *Thresholds) MinDenseScore(n int) float64 {
	if n < 2 || n >= len(th.minScore) {
		return math.Inf(1)
	}
	return th.minScore[n]
}

// DenseFloor returns the smallest score IsDense accepts at cardinality n:
// MinDenseScore(n) lowered by the comparison tolerance (+Inf outside
// 2 ≤ n ≤ Nmax). Callers that prune candidates before classifying them
// subtract from this bound, not from MinDenseScore, so that the pruning can
// never be stricter than the classification.
func (th *Thresholds) DenseFloor(n int) float64 {
	if n < 2 || n > th.Nmax {
		return math.Inf(1)
	}
	return th.denseFloor[n]
}

// MinOutputScore returns S(n)·T, the minimum internal score for a subgraph of
// cardinality n to be output-dense.
func (th *Thresholds) MinOutputScore(n int) float64 {
	if n < 2 {
		return math.Inf(1)
	}
	return th.S(n) * th.T
}

// Density returns score/S(n) under the configured measure.
func (th *Thresholds) Density(score float64, n int) float64 {
	return Density(th.Measure, score, n)
}

// IsDense reports whether a subgraph of cardinality n with the given score is
// dense: dens ≥ T_n and n ≤ Nmax. The comparison uses a tiny relative epsilon
// so that scores assembled through different summation orders classify
// identically.
func (th *Thresholds) IsDense(score float64, n int) bool {
	if n < 2 || n > th.Nmax {
		return false
	}
	return score >= th.denseFloor[n]
}

// IsOutputDense reports whether a subgraph of cardinality n with the given
// score is output-dense: dens ≥ T and n ≤ Nmax.
func (th *Thresholds) IsOutputDense(score float64, n int) bool {
	if n < 2 || n > th.Nmax {
		return false
	}
	return score >= th.outputFloor[n]
}

// IsTooDense reports whether a subgraph of cardinality n with the given score
// is "too-dense": augmenting it with any vertex, even one disconnected from
// it, yields a dense subgraph, i.e. score(C) ≥ S(n+1)·T_{n+1}. This is the
// property an ImplicitTooDense family relies on; it is slightly stricter than
// the shorthand used in Table 1 of the paper (README.md, "Notation that
// departs from the paper").
// Subgraphs of cardinality Nmax are never too-dense because their supergraphs
// exceed the cardinality constraint.
func (th *Thresholds) IsTooDense(score float64, n int) bool {
	if n < 2 || n >= th.Nmax {
		return false
	}
	return score >= th.denseFloor[n+1]
}

// Iterations returns the number of exploration iterations DynDens must
// perform for a positive update of magnitude delta: ceil(delta/δ_it),
// and at least 1 (Section 4.1.4).
func (th *Thresholds) Iterations(delta float64) int {
	if delta <= 0 {
		return 0
	}
	it := int(math.Ceil(delta / th.DeltaIt))
	if it < 1 {
		it = 1
	}
	return it
}

// String summarises the schedule.
func (th *Thresholds) String() string {
	return fmt.Sprintf("thresholds{%s T=%.4g Nmax=%d δit=%.4g}", th.Measure.Name(), th.T, th.Nmax, th.DeltaIt)
}

// tolerantBound lowers a score bound by the comparison tolerance: the
// predicates accept score ≥ bound up to a relative epsilon. Bounds are
// products of user parameters, scores are running sums of weights; without
// the tolerance, subgraphs whose density sits exactly on a threshold could
// classify differently depending on summation order. The tolerance is purely
// relative, so multiplying every weight and T by one factor classifies every
// subgraph the same way at any magnitude.
func tolerantBound(bound float64) float64 {
	const eps = 1e-9
	return bound - eps*math.Abs(bound)
}
