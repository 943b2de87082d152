package density

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mustThresholds is NewThresholds for parameters known to be good.
func mustThresholds(m Measure, t float64, nmax int, deltaIt float64) *Thresholds {
	th, err := NewThresholds(m, t, nmax, deltaIt)
	if err != nil {
		panic(err)
	}
	return th
}

func TestBuiltinMeasuresS(t *testing.T) {
	cases := []struct {
		m    Measure
		n    int
		want float64
	}{
		{AvgWeight, 2, 1}, {AvgWeight, 4, 6}, {AvgWeight, 5, 10},
		{AvgDegree, 2, 2}, {AvgDegree, 7, 7},
		{SqrtDens, 2, math.Sqrt(2)}, {SqrtDens, 4, math.Sqrt(12)},
	}
	for _, c := range cases {
		if got := c.m.S(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s.S(%d) = %v, want %v", c.m.Name(), c.n, got, c.want)
		}
	}
}

func TestValidateMeasureAcceptsBuiltins(t *testing.T) {
	for _, m := range []Measure{AvgWeight, AvgDegree, SqrtDens} {
		if err := ValidateMeasure(m, 20); err != nil {
			t.Errorf("ValidateMeasure(%s) = %v", m.Name(), err)
		}
	}
}

// fnMeasure is a Measure from an arbitrary S_n, for the cases the built-in
// measures do not cover.
type fnMeasure struct {
	name string
	s    func(n int) float64
}

func (f fnMeasure) Name() string    { return f.name }
func (f fnMeasure) S(n int) float64 { return f.s(n) }

func TestValidateMeasureRejectsCounterIntuitive(t *testing.T) {
	// S_n = constant: removing a vertex from a clique increases density.
	bad := fnMeasure{"const", func(n int) float64 { return 1 }}
	if err := ValidateMeasure(bad, 5); err == nil {
		t.Error("constant S_n should be rejected")
	}
	// S_n growing too fast (n^3).
	bad2 := fnMeasure{"cubic", func(n int) float64 { return float64(n * n * n) }}
	if err := ValidateMeasure(bad2, 5); err == nil {
		t.Error("cubic S_n should be rejected")
	}
}

func TestGIsNonIncreasing(t *testing.T) {
	for _, m := range []Measure{AvgWeight, AvgDegree, SqrtDens} {
		for n := 3; n <= 15; n++ {
			if G(m, n) > G(m, n-1)+1e-12 {
				t.Errorf("%s: g(%d)=%v > g(%d)=%v", m.Name(), n, G(m, n), n-1, G(m, n-1))
			}
		}
	}
}

func TestNewThresholdsValidation(t *testing.T) {
	if _, err := NewThresholds(AvgWeight, 1.0, 1, 0.1); err == nil {
		t.Error("Nmax=1 should be rejected")
	}
	if _, err := NewThresholds(AvgWeight, 0, 5, 0.1); err == nil {
		t.Error("T=0 should be rejected")
	}
	for _, T := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewThresholds(AvgWeight, T, 5, 0.1); !errors.Is(err, ErrBadThreshold) {
			t.Errorf("T=%v: err = %v, want ErrBadThreshold", T, err)
		}
	}
	for _, dit := range []float64{math.NaN(), math.Inf(1)} {
		for _, nmax := range []int{2, 5} {
			if _, err := NewThresholds(AvgWeight, 1.0, nmax, dit); !errors.Is(err, ErrBadDeltaIt) {
				t.Errorf("δit=%v nmax=%d: err = %v, want ErrBadDeltaIt", dit, nmax, err)
			}
		}
	}
	if _, err := NewThresholds(AvgWeight, 1.0, 5, 0); err == nil {
		t.Error("δit=0 should be rejected")
	}
	if _, err := NewThresholds(AvgWeight, 1.0, 5, MaxDeltaIt(AvgWeight, 1.0, 5)*2); err == nil {
		t.Error("δit above maximum should be rejected")
	}
	if _, err := NewThresholds(AvgWeight, 1.0, 5, MaxDeltaIt(AvgWeight, 1.0, 5)*0.3); err != nil {
		t.Errorf("valid parameters rejected: %v", err)
	}
}

// The execution example of Section 3.1 uses AvgWeight, T = 1, Nmax = 4 and
// the schedule T_2 = 0.9, T_3 = 0.975, T_4 = 1. Under the literal Eq. 8 this
// schedule corresponds to δ_it = 0.075 (the example quotes 0.15, which matches
// the S_n = n(n−1) convention; see README.md, "Notation that departs from the
// paper").
func TestPaperExecutionExampleSchedule(t *testing.T) {
	th := mustThresholds(AvgWeight, 1.0, 4, 0.075)
	want := map[int]float64{2: 0.9, 3: 0.975, 4: 1.0}
	for n, w := range want {
		if got := th.tn[n]; math.Abs(got-w) > 1e-9 {
			t.Errorf("T_%d = %v, want %v", n, got, w)
		}
	}
}

// The closed forms of Section 4.1.3: for S_n = n,
// T_n = (n-1)/(Nmax-1)·(T+δit) − δit; for S_n = n(n-1) (scaled AvgWeight),
// T_n = T − δit·(1/(n−1) − 1/(Nmax−1)).
func TestClosedFormSchedules(t *testing.T) {
	const T, dit = 2.0, 0.05
	nmax := 8
	thDeg := mustThresholds(AvgDegree, T, nmax, dit)
	for n := 2; n <= nmax; n++ {
		want := float64(n-1)/float64(nmax-1)*(T+dit) - dit
		if got := thDeg.tn[n]; math.Abs(got-want) > 1e-9 {
			t.Errorf("AvgDegree T_%d = %v, want %v", n, got, want)
		}
	}
	pair := fnMeasure{"pairs", func(n int) float64 { return float64(n) * float64(n-1) }}
	thPair := mustThresholds(pair, T, nmax, dit)
	for n := 2; n <= nmax; n++ {
		want := T - dit*(1/float64(n-1)-1/float64(nmax-1))
		if got := thPair.tn[n]; math.Abs(got-want) > 1e-9 {
			t.Errorf("pairs T_%d = %v, want %v", n, got, want)
		}
	}
}

func TestTnMonotonicityAndGrowthProperty(t *testing.T) {
	for _, m := range []Measure{AvgWeight, AvgDegree, SqrtDens} {
		for _, T := range []float64{0.5, 1.0, 1.7} {
			for _, nmax := range []int{4, 6, 10} {
				max := MaxDeltaIt(m, T, nmax)
				for _, frac := range []float64{0.01, 0.2, 0.5, 0.9} {
					th, err := NewThresholds(m, T, nmax, frac*max)
					if err != nil {
						t.Fatalf("%s T=%v nmax=%d frac=%v: %v", m.Name(), T, nmax, frac, err)
					}
					if math.Abs(th.tn[nmax]-T) > 1e-9 {
						t.Errorf("%s: T_Nmax = %v, want %v", m.Name(), th.tn[nmax], T)
					}
					for n := 3; n <= nmax; n++ {
						if th.tn[n] < th.tn[n-1]-1e-9 {
							t.Errorf("%s: T_n not non-decreasing at n=%d: %v < %v", m.Name(), n, th.tn[n], th.tn[n-1])
						}
						gn, gn1 := G(m, n), G(m, n-1)
						if th.tn[n]*gn <= th.tn[n-1]*gn1 {
							t.Errorf("%s: growth property fails at n=%d", m.Name(), n)
						}
						if th.tn[n] <= 0 {
							t.Errorf("%s: T_%d = %v ≤ 0", m.Name(), n, th.tn[n])
						}
					}
				}
			}
		}
	}
}

func TestClassificationPredicates(t *testing.T) {
	th := mustThresholds(AvgWeight, 1.0, 4, 0.075)
	// Cardinality 2: dense iff score ≥ 0.9, output-dense iff ≥ 1.0,
	// too-dense iff score ≥ S(3)·T_3 = 3·0.975 = 2.925.
	if !th.IsDense(0.9, 2) || th.IsDense(0.89, 2) {
		t.Error("IsDense at n=2 misclassifies")
	}
	if !th.IsOutputDense(1.0, 2) || th.IsOutputDense(0.99, 2) {
		t.Error("IsOutputDense at n=2 misclassifies")
	}
	if !th.IsTooDense(2.925, 2) || th.IsTooDense(2.9, 2) {
		t.Error("IsTooDense at n=2 misclassifies")
	}
	// Cardinality above Nmax is never dense.
	if th.IsDense(100, 5) || th.IsOutputDense(100, 5) {
		t.Error("cardinality above Nmax should never be dense")
	}
	// Cardinality Nmax is never too-dense.
	if th.IsTooDense(1e9, 4) {
		t.Error("cardinality Nmax should never be too-dense")
	}
	// Singletons are never dense.
	if th.IsDense(10, 1) {
		t.Error("singleton should never be dense")
	}
}

func TestIterations(t *testing.T) {
	th := mustThresholds(AvgWeight, 1.0, 4, 0.075)
	cases := []struct {
		delta float64
		want  int
	}{
		{-0.5, 0}, {0, 0}, {0.05, 1}, {0.075, 1}, {0.08, 2}, {0.151, 3},
	}
	for _, c := range cases {
		if got := th.Iterations(c.delta); got != c.want {
			t.Errorf("Iterations(%v) = %d, want %d", c.delta, got, c.want)
		}
	}
}

// TestRescaleScalesDeltaIt: the schedule of a decay scale moves δ_it in
// proportion to T (Algorithm 3, line 1); scale 1.25 takes T from 1 to 0.8.
func TestRescaleScalesDeltaIt(t *testing.T) {
	th := mustThresholds(AvgWeight, 1.0, 6, 0.05)
	th2 := new(Thresholds)
	if err := th.Normalize(th2, 1.25); err != nil {
		t.Fatal(err)
	}
	if math.Abs(th2.DeltaIt-0.04) > 1e-12 {
		t.Errorf("δit after rescale = %v, want 0.04", th2.DeltaIt)
	}
	if math.Abs(th2.tn[th2.Nmax]-0.8) > 1e-12 {
		t.Errorf("new T_Nmax = %v, want 0.8", th2.tn[th2.Nmax])
	}
}

// sameSchedule reports the first field in which two schedules differ bit for
// bit, or "" if they agree everywhere.
func sameSchedule(got, want *Thresholds) string {
	if got.Measure != want.Measure || got.Nmax != want.Nmax {
		return "measure or Nmax"
	}
	if math.Float64bits(got.T) != math.Float64bits(want.T) {
		return fmt.Sprintf("T %v, want %v", got.T, want.T)
	}
	if math.Float64bits(got.DeltaIt) != math.Float64bits(want.DeltaIt) {
		return fmt.Sprintf("δ_it %v, want %v", got.DeltaIt, want.DeltaIt)
	}
	tables := [][2][]float64{
		{got.tn, want.tn}, {got.sn, want.sn}, {got.minScore, want.minScore},
		{got.denseFloor, want.denseFloor}, {got.outputFloor, want.outputFloor},
	}
	for i, p := range tables {
		if len(p[0]) != len(p[1]) {
			return fmt.Sprintf("table %d has %d entries, want %d", i, len(p[0]), len(p[1]))
		}
		for n := range p[0] {
			if math.Float64bits(p[0][n]) != math.Float64bits(p[1][n]) {
				return fmt.Sprintf("table %d entry %d: %v, want %v", i, n, p[0][n], p[1][n])
			}
		}
	}
	return ""
}

// TestRescaleMatchesNewThresholds walks random decay-scale sequences — the
// threshold baseT/λ of a rescaled-decay engine, λ shrinking by random factors
// with occasional renormalisations back to 1, plus stretches near λ = 1e-150
// — through two alternating schedules normalized from the base, as the
// engine keeps them, and through one schedule normalized onto itself by each
// step's change of scale. Every step equals NewThresholds on the same
// parameters bit for bit, and rewrites the tables without allocating.
func TestRescaleMatchesNewThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, m := range []Measure{AvgWeight, AvgDegree, SqrtDens} {
		for _, nmax := range []int{2, 3, 5, 9} {
			const baseT = 6.5
			start := mustThresholds(m, baseT, nmax, 0.01*math.Min(MaxDeltaIt(m, baseT, nmax), baseT))
			cur, spare := mustThresholds(m, baseT, nmax, start.DeltaIt), new(Thresholds)
			self := mustThresholds(m, baseT, nmax, start.DeltaIt)
			scale := 1.0
			for step := 0; step < 400; step++ {
				prev := scale
				switch r := rng.Float64(); {
				case r < 0.05:
					scale = 1
				case r < 0.15:
					scale = 1e-150 * (1 + 10*rng.Float64())
				default:
					scale *= 0.5 + 0.5*rng.Float64()
					scale = max(scale, 1e-150)
				}
				want, err := NewThresholds(m, baseT/scale, nmax, start.DeltaIt/scale)
				if err != nil {
					t.Fatalf("%s nmax=%d step %d: NewThresholds: %v", m.Name(), nmax, step, err)
				}
				if err := start.Normalize(spare, scale); err != nil {
					t.Fatalf("%s nmax=%d step %d: Normalize: %v", m.Name(), nmax, step, err)
				}
				if msg := sameSchedule(spare, want); msg != "" {
					t.Fatalf("%s nmax=%d step %d (λ=%g): %s", m.Name(), nmax, step, scale, msg)
				}
				cur, spare = spare, cur
				r := scale / prev
				wantSelf, err := NewThresholds(m, self.T/r, nmax, self.DeltaIt/r)
				if err != nil {
					t.Fatalf("%s nmax=%d step %d: NewThresholds: %v", m.Name(), nmax, step, err)
				}
				if err := self.Normalize(self, r); err != nil {
					t.Fatalf("%s nmax=%d step %d: in-place Normalize: %v", m.Name(), nmax, step, err)
				}
				if msg := sameSchedule(self, wantSelf); msg != "" {
					t.Fatalf("%s nmax=%d step %d: in place: %s", m.Name(), nmax, step, msg)
				}
			}
			s := 1.0
			if allocs := testing.AllocsPerRun(20, func() {
				s *= 0.99
				if err := start.Normalize(spare, s); err != nil {
					panic(err)
				}
				cur, spare = spare, cur
			}); allocs != 0 {
				t.Errorf("%s nmax=%d: Normalize performed %v allocs/run, want 0", m.Name(), nmax, allocs)
			}
		}
	}
}

// TestRescaleRejectsBadThresholds: a decay scale that makes the threshold
// other than positive and finite is an error, and the destination — here the
// schedule itself — keeps what it held. The scales below give T = 2/s of
// NaN, +Inf, −Inf, 0, −0, −2 and a tiny negative.
func TestRescaleRejectsBadThresholds(t *testing.T) {
	th := mustThresholds(SqrtDens, 2, 5, 0.01*MaxDeltaIt(SqrtDens, 2, 5))
	want := mustThresholds(SqrtDens, 2, 5, th.DeltaIt)
	for _, s := range []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -1, -math.MaxFloat64} {
		if err := th.Normalize(th, s); !errors.Is(err, ErrBadThreshold) {
			t.Errorf("Normalize(%v): err = %v, want ErrBadThreshold", s, err)
		}
		if msg := sameSchedule(th, want); msg != "" {
			t.Fatalf("a rejected Normalize(%v) changed the schedule: %s", s, msg)
		}
	}
}

// Property (Section 4.1.2 with Eq. 8): the single-exploration sufficiency
// bound (n−2)(n−1)(g_n·T_n − g_{n−1}·T_{n−1}) simplifies to exactly δ_it for
// every n, measure, and parameter choice.
func TestSingleIterationBoundEqualsDeltaIt(t *testing.T) {
	f := func(tRaw, ditRaw float64, nmaxRaw uint8, which uint8) bool {
		T := 0.2 + math.Mod(math.Abs(tRaw), 3.0)
		nmax := 3 + int(nmaxRaw%8)
		var m Measure
		switch which % 3 {
		case 0:
			m = AvgWeight
		case 1:
			m = AvgDegree
		default:
			m = SqrtDens
		}
		dit := (0.01 + 0.9*math.Mod(math.Abs(ditRaw), 1.0)) * MaxDeltaIt(m, T, nmax)
		th, err := NewThresholds(m, T, nmax, dit)
		if err != nil {
			return true // out-of-range parameter combination; skip
		}
		for n := 3; n <= nmax; n++ {
			bound := float64(n-2) * float64(n-1) * (G(m, n)*th.tn[n] - G(m, n-1)*th.tn[n-1])
			if math.Abs(bound-dit) > 1e-6*math.Max(1, dit) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinDenseScore is consistent with IsDense at the boundary.
func TestMinDenseScoreBoundary(t *testing.T) {
	th := mustThresholds(SqrtDens, 0.7, 7, 0.02)
	for n := 2; n <= 7; n++ {
		s := th.MinDenseScore(n)
		if !th.IsDense(s, n) {
			t.Errorf("score exactly at MinDenseScore(%d) not dense", n)
		}
		if th.IsDense(s*(1-1e-6)-1e-6, n) {
			t.Errorf("score clearly below MinDenseScore(%d) classified dense", n)
		}
	}
}

// geqReference is the comparison the predicates make, worked out on every
// call instead of precomputed: score ≥ bound up to a relative epsilon.
func geqReference(score, bound float64) bool {
	const eps = 1e-9
	return score >= bound-eps*math.Abs(bound)
}

// TestPrecomputedBoundsMatchTolerantComparison walks every predicate over
// scores on and around every bound of the schedule — the bound itself, the
// tolerant bound, their float neighbours and points a tolerance away — and
// requires the verdict the per-call comparison gave, for schedules from tiny
// to huge thresholds and for schedules derived through Normalize (the path
// every rescaled-decay epoch takes).
func TestPrecomputedBoundsMatchTolerantComparison(t *testing.T) {
	var schedules []*Thresholds
	for _, m := range []Measure{AvgWeight, AvgDegree, SqrtDens} {
		for _, T := range []float64{1e-12, 0.3, 1, 6.5, 1e9, 3.8e124} {
			for _, nmax := range []int{2, 3, 5, 9} {
				th := mustThresholds(m, T, nmax, 0.01*math.Min(MaxDeltaIt(m, T, nmax), T))
				moved := new(Thresholds)
				if err := th.Normalize(moved, 1/1.37); err != nil {
					t.Fatal(err)
				}
				schedules = append(schedules, th, moved)
			}
		}
	}
	for _, th := range schedules {
		for n := 1; n <= th.Nmax+1; n++ {
			inRange := n >= 2 && n <= th.Nmax
			for _, bound := range []float64{th.MinDenseScore(n), th.MinDenseScore(n + 1), th.MinOutputScore(n)} {
				if math.IsInf(bound, 0) {
					continue
				}
				tol := bound - 1e-9*math.Abs(bound)
				for _, s := range []float64{
					bound, math.Nextafter(bound, math.Inf(1)), math.Nextafter(bound, math.Inf(-1)),
					tol, math.Nextafter(tol, math.Inf(1)), math.Nextafter(tol, math.Inf(-1)),
					bound * (1 - 2e-9), bound * (1 + 2e-9), bound - 2e-9, 0, -bound, 2 * bound,
				} {
					if got, want := th.IsDense(s, n), inRange && geqReference(s, th.MinDenseScore(n)); got != want {
						t.Fatalf("%v: IsDense(%v, %d) = %v, per-call comparison says %v", th, s, n, got, want)
					}
					if got, want := th.IsOutputDense(s, n), inRange && geqReference(s, th.S(n)*th.T); got != want {
						t.Fatalf("%v: IsOutputDense(%v, %d) = %v, per-call comparison says %v", th, s, n, got, want)
					}
					if got, want := th.IsTooDense(s, n), n >= 2 && n < th.Nmax && geqReference(s, th.MinDenseScore(n+1)); got != want {
						t.Fatalf("%v: IsTooDense(%v, %d) = %v, per-call comparison says %v", th, s, n, got, want)
					}
					if inRange && th.IsDense(s, n) != (s >= th.DenseFloor(n)) {
						t.Fatalf("%v: DenseFloor(%d) = %v is not the smallest score IsDense accepts (at %v)", th, n, th.DenseFloor(n), s)
					}
				}
			}
		}
		if !math.IsInf(th.DenseFloor(1), 1) || !math.IsInf(th.DenseFloor(th.Nmax+1), 1) {
			t.Fatalf("%v: DenseFloor outside 2..Nmax must be +Inf", th)
		}
	}
}

// TestClassificationIsScaleInvariant pins that the comparison tolerance is
// relative at every magnitude: multiplying T, δ_it and a score by the same
// power of two (exact in floating point) leaves every verdict unchanged.
// A tolerance floored at an absolute 1e-9 broke this below 1 — at T = 1e-12
// it classified a negative score as dense.
func TestClassificationIsScaleInvariant(t *testing.T) {
	tiny := mustThresholds(AvgWeight, 1e-12, 4, 0.01*MaxDeltaIt(AvgWeight, 1e-12, 4))
	if tiny.IsDense(-9.99e-10, 2) || tiny.IsOutputDense(0, 2) || tiny.IsTooDense(0, 2) {
		t.Fatal("a non-positive score classified dense at T = 1e-12")
	}
	for _, m := range []Measure{AvgWeight, AvgDegree, SqrtDens} {
		base := mustThresholds(m, 6.5, 5, 0.01*MaxDeltaIt(m, 6.5, 5))
		for _, c := range []float64{0x1p-400, 0x1p-40, 0x1p400} {
			th := mustThresholds(m, base.T*c, base.Nmax, base.DeltaIt*c)
			for n := 1; n <= base.Nmax+1; n++ {
				for _, bound := range []float64{base.MinDenseScore(n), base.MinDenseScore(n + 1), base.MinOutputScore(n)} {
					if math.IsInf(bound, 0) {
						continue
					}
					for _, s := range []float64{
						bound, bound * (1 - 5e-10), bound * (1 - 2e-9), bound * (1 + 2e-9),
						math.Nextafter(tolerantBound(bound), math.Inf(-1)), tolerantBound(bound), 0, -bound,
					} {
						if base.IsDense(s, n) != th.IsDense(s*c, n) ||
							base.IsOutputDense(s, n) != th.IsOutputDense(s*c, n) ||
							base.IsTooDense(s, n) != th.IsTooDense(s*c, n) {
							t.Fatalf("%s c=%g n=%d: score %v classifies differently once scaled", m.Name(), c, n, s)
						}
					}
				}
			}
		}
	}
}

// TestNormalizeCommutesWithFold pins the two facts a fold rests on: Fold
// splits a scale below 1e-150 into m·2^k with m in [½, 1) and leaves any
// other alone, and the schedule Normalize gives for s·2^-k is the one for s
// with every bound multiplied by 2^k, bit for bit — so relabelling weights
// and schedule by 2^k together classifies nothing differently.
func TestNormalizeCommutesWithFold(t *testing.T) {
	for _, s := range []float64{1, 0.5, 1e-150, 0x1p-400} {
		if m, k := Fold(s); m != s || k != 0 {
			t.Fatalf("Fold(%v) = %v, %d; want no fold", s, m, k)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for _, m := range []Measure{AvgWeight, AvgDegree, SqrtDens} {
		base := mustThresholds(m, 3, 5, 0.4*MaxDeltaIt(m, 3, 5))
		for i := 0; i < 200; i++ {
			s := math.Ldexp(0.5+0.5*rng.Float64(), -499-rng.Intn(400))
			frac, k := Fold(s)
			if frac < 0.5 || frac >= 1 || math.Ldexp(frac, k) != s {
				t.Fatalf("Fold(%v) = %v, %d", s, frac, k)
			}
			var at, folded Thresholds
			if err := base.Normalize(&at, s); err != nil {
				t.Fatal(err)
			}
			if err := base.Normalize(&folded, frac); err != nil {
				t.Fatal(err)
			}
			for n := 2; n <= 6; n++ {
				for _, tab := range [][2][]float64{{at.tn, folded.tn}, {at.minScore, folded.minScore}, {at.denseFloor, folded.denseFloor}, {at.outputFloor, folded.outputFloor}} {
					if math.Ldexp(tab[0][n], k) != tab[1][n] {
						t.Fatalf("%s: at scale %v a bound of n=%d is %v; ×2^%d that is not the folded %v", m.Name(), s, n, tab[0][n], k, tab[1][n])
					}
				}
			}
			if math.Ldexp(at.T, k) != folded.T || math.Ldexp(at.DeltaIt, k) != folded.DeltaIt {
				t.Fatalf("%s: at scale %v T, δ_it = %v, %v; folded %v, %v", m.Name(), s, at.T, at.DeltaIt, folded.T, folded.DeltaIt)
			}
		}
	}
}
