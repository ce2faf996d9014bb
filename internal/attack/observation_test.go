package attack

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func diffMetric(o []int, mu []float64) float64 {
	var s float64
	for i := range o {
		s += math.Abs(float64(o[i]) - mu[i])
	}
	return s
}

func addAllMetric(o []int, mu []float64) float64 {
	var s float64
	for i := range o {
		s += math.Max(float64(o[i]), mu[i])
	}
	return s
}

func minProb(o []int, g []float64, m int) float64 {
	mn := math.Inf(1)
	for i := range o {
		mn = math.Min(mn, mathx.BinomPMF(o[i], m, g[i]))
	}
	return mn
}

func TestClassString(t *testing.T) {
	if DecBounded.String() != "dec-bounded" || DecOnly.String() != "dec-only" {
		t.Error("Class.String misbehaves")
	}
	if Class(9).String() == "" {
		t.Error("unknown class should still print")
	}
}

func TestConstraintCheckers(t *testing.T) {
	a := []int{5, 3, 0, 7}
	// Pure increase: Dec-Bounded ok with x=0, Dec-Only not.
	inc := []int{9, 3, 2, 7}
	if !SatisfiesDecBounded(a, inc, 0) {
		t.Error("increase should satisfy Dec-Bounded with zero budget")
	}
	if SatisfiesDecOnly(a, inc, 10) {
		t.Error("increase must violate Dec-Only")
	}
	// Decrease of 3 total.
	dec := []int{4, 1, 0, 7}
	if !SatisfiesDecBounded(a, dec, 3) || SatisfiesDecBounded(a, dec, 2) {
		t.Error("Dec-Bounded budget accounting wrong")
	}
	if !SatisfiesDecOnly(a, dec, 3) || SatisfiesDecOnly(a, dec, 2) {
		t.Error("Dec-Only budget accounting wrong")
	}
	// Negative counts and length mismatches are invalid.
	if SatisfiesDecBounded(a, []int{-1, 3, 0, 7}, 100) {
		t.Error("negative counts invalid")
	}
	if SatisfiesDecOnly(a, []int{5, 3, 0}, 100) {
		t.Error("length mismatch invalid")
	}
}

func TestDiffMinimizerDecBounded(t *testing.T) {
	mu := []float64{10, 2, 0, 5}
	a := []int{3, 8, 1, 5}
	s := NewDiffMinimizer(mu, DecBounded)
	if s.Class() != DecBounded || s.Name() == "" {
		t.Error("metadata wrong")
	}
	o := s.Taint(a, 4)
	// Input untouched.
	if a[0] != 3 {
		t.Fatal("Taint mutated its input")
	}
	if !SatisfiesDecBounded(a, o, 4) {
		t.Fatalf("constraint violated: a=%v o=%v", a, o)
	}
	// Group 0 raised to µ for free; groups 1,2 decreased with budget.
	if o[0] != 10 {
		t.Errorf("o[0] = %d, want 10 (free raise)", o[0])
	}
	// Budget 4 should erase all excesses: group1 excess 6 → can't fully.
	// Greedy spends all 4 units on the largest excess (group 1).
	if o[1] != 4 {
		t.Errorf("o[1] = %d, want 4", o[1])
	}
	if diffMetric(o, mu) >= diffMetric(a, mu) {
		t.Error("taint did not reduce the Diff metric")
	}
}

func TestDiffMinimizerDecOnly(t *testing.T) {
	mu := []float64{10, 2, 0, 5}
	a := []int{3, 8, 1, 5}
	s := NewDiffMinimizer(mu, DecOnly)
	o := s.Taint(a, 100)
	if !SatisfiesDecOnly(a, o, 100) {
		t.Fatalf("Dec-Only constraint violated: a=%v o=%v", a, o)
	}
	// No raises: o[0] stays 3.
	if o[0] != 3 {
		t.Errorf("o[0] = %d, want 3 (no raises allowed)", o[0])
	}
	// Excesses fully drained with generous budget.
	if o[1] != 2 || o[2] != 0 {
		t.Errorf("o = %v, want excesses drained to µ", o)
	}
}

func TestDiffMinimizerZeroBudgetDecOnly(t *testing.T) {
	mu := []float64{1, 1}
	a := []int{5, 5}
	o := NewDiffMinimizer(mu, DecOnly).Taint(a, 0)
	for i := range a {
		if o[i] != a[i] {
			t.Fatal("zero budget must leave observation unchanged under Dec-Only")
		}
	}
}

func TestDiffMinimizerFractionalTargets(t *testing.T) {
	// µ = 4.6: the best integer is 5.
	mu := []float64{4.6}
	o := NewDiffMinimizer(mu, DecBounded).Taint([]int{1}, 0)
	if o[0] != 5 {
		t.Errorf("o = %v, want raise to round(µ) = 5", o)
	}
	// From above, with budget: 8 → 5 costs 3.
	o = NewDiffMinimizer(mu, DecBounded).Taint([]int{8}, 10)
	if o[0] != 5 {
		t.Errorf("o = %v, want 5", o)
	}
}

func TestDiffMinimizerNeverIncreasesMetricProperty(t *testing.T) {
	f := func(seed uint8, budget uint8) bool {
		// Deterministic pseudo-random small instances.
		n := 8
		mu := make([]float64, n)
		a := make([]int, n)
		v := int(seed)
		for i := 0; i < n; i++ {
			v = (v*31 + 17) % 97
			mu[i] = float64(v % 12)
			v = (v*31 + 17) % 97
			a[i] = v % 12
		}
		x := int(budget) % 20
		for _, class := range []Class{DecBounded, DecOnly} {
			o := NewDiffMinimizer(mu, class).Taint(a, x)
			if diffMetric(o, mu) > diffMetric(a, mu)+1e-9 {
				return false
			}
			if class == DecBounded && !SatisfiesDecBounded(a, o, x) {
				return false
			}
			if class == DecOnly && !SatisfiesDecOnly(a, o, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDiffMinimizerOptimalWithAmpleBudget(t *testing.T) {
	// With budget >= total excess the attacker reaches the global optimum:
	// o_i = round(µ_i) for Dec-Bounded.
	mu := []float64{3.2, 0, 7.9, 1}
	a := []int{9, 4, 2, 1}
	o := NewDiffMinimizer(mu, DecBounded).Taint(a, 100)
	want := []int{3, 0, 8, 1}
	for i := range want {
		if o[i] != want[i] {
			t.Fatalf("o = %v, want %v", o, want)
		}
	}
}

func TestAddAllMinimizer(t *testing.T) {
	mu := []float64{4, 1, 6}
	a := []int{7, 5, 2}
	for _, class := range []Class{DecBounded, DecOnly} {
		s := NewAddAllMinimizer(mu, class)
		if s.Class() != class || s.Name() == "" {
			t.Error("metadata wrong")
		}
		o := s.Taint(a, 3)
		if !SatisfiesDecOnly(a, o, 3) {
			t.Fatalf("%v: AddAll attacker should only decrease: a=%v o=%v", class, a, o)
		}
		if addAllMetric(o, mu) > addAllMetric(a, mu) {
			t.Error("taint did not reduce Add-all")
		}
	}
	// Ample budget: AM floor is Σ µ_i when all a_i ≥ µ_i.
	o := NewAddAllMinimizer(mu, DecBounded).Taint([]int{9, 9, 9}, 100)
	if got := addAllMetric(o, mu); math.Abs(got-11) > 1e-12 {
		t.Errorf("AM after ample budget = %v, want Σµ = 11", got)
	}
}

func TestAddAllPrefersLargestExcess(t *testing.T) {
	mu := []float64{0, 0}
	a := []int{10, 2}
	o := NewAddAllMinimizer(mu, DecBounded).Taint(a, 5)
	// All five units should hit index 0 first (equal unit gains, largest
	// excess first is tie-broken by gain; verify total reduction = 5).
	if (a[0]-o[0])+(a[1]-o[1]) != 5 {
		t.Errorf("spent %d decrements, want 5", (a[0]-o[0])+(a[1]-o[1]))
	}
	if addAllMetric(o, mu) != 7 {
		t.Errorf("AM = %v, want 7", addAllMetric(o, mu))
	}
}

func TestProbMaximizerDecBounded(t *testing.T) {
	m := 100
	g := []float64{0.3, 0.01, 0.1}
	a := []int{2, 40, 10} // group 0 way below mode, group 1 way above
	s := NewProbMaximizer(g, m, DecBounded)
	if s.Class() != DecBounded || s.Name() == "" {
		t.Error("metadata wrong")
	}
	o := s.Taint(a, 25)
	if !SatisfiesDecBounded(a, o, 25) {
		t.Fatalf("constraint violated: %v -> %v", a, o)
	}
	if minProb(o, g, m) <= minProb(a, g, m) {
		t.Error("taint did not raise the minimum probability")
	}
	// Free raise should have lifted group 0 to its mode.
	if o[0] != mathx.BinomMode(m, g[0]) {
		t.Errorf("o[0] = %d, want mode %d", o[0], mathx.BinomMode(m, g[0]))
	}
}

func TestProbMaximizerDecOnly(t *testing.T) {
	m := 100
	g := []float64{0.3, 0.01}
	a := []int{2, 40}
	o := NewProbMaximizer(g, m, DecOnly).Taint(a, 50)
	if !SatisfiesDecOnly(a, o, 50) {
		t.Fatalf("Dec-Only violated: %v -> %v", a, o)
	}
	// Group 0 is below its mode; silence can't fix it, so the water-fill
	// stops once group 0 becomes the minimum.
	if o[0] != 2 {
		t.Errorf("o[0] = %d, want 2 (cannot raise)", o[0])
	}
	// Group 1 should have been decreased toward its mode (1).
	if o[1] >= 40 {
		t.Errorf("o[1] = %d, want decreased", o[1])
	}
}

func TestProbMaximizerStopsAtModes(t *testing.T) {
	m := 50
	g := []float64{0.2, 0.4}
	a := []int{mathx.BinomMode(m, g[0]), mathx.BinomMode(m, g[1])}
	o := NewProbMaximizer(g, m, DecBounded).Taint(a, 100)
	for i := range a {
		if o[i] != a[i] {
			t.Errorf("already-optimal observation changed: %v -> %v", a, o)
		}
	}
}

func TestProbMaximizerNeverLowersMinProbProperty(t *testing.T) {
	f := func(seed uint8, budget uint8) bool {
		m := 60
		n := 5
		g := make([]float64, n)
		a := make([]int, n)
		v := int(seed)
		for i := 0; i < n; i++ {
			v = (v*37 + 11) % 101
			g[i] = float64(v%50)/100 + 0.01
			v = (v*37 + 11) % 101
			a[i] = v % m
		}
		x := int(budget) % 30
		for _, class := range []Class{DecBounded, DecOnly} {
			o := NewProbMaximizer(g, m, class).Taint(a, x)
			if minProb(o, g, m) < minProb(a, g, m)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestCompromisedIsCeiling pins the §7.1 budget rule: ⌈x%·|a|⌉ nodes,
// with exact products (binary-float noise included) not rounded up.
func TestCompromisedIsCeiling(t *testing.T) {
	for _, c := range []struct {
		a    []int
		frac float64
		want int
	}{
		{[]int{60, 40}, 0.07, 7},    // 0.07*100 = 7.000000000000001
		{[]int{50, 45}, 0.10, 10},   // 9.5 rounds up
		{[]int{3, 0, 2}, 0.20, 1},   // exactly 1
		{[]int{3, 0, 3}, 0.20, 2},   // 1.2 rounds up
		{[]int{0, 0}, 0.20, 0},      // no neighbors, no budget
		{[]int{120, 80}, 0.0, 0},    // no attacker
		{[]int{7, 3, 90}, 1.0, 100}, // every neighbor
	} {
		if got := Compromised(c.a, c.frac); got != c.want {
			t.Errorf("Compromised(%v, %v) = %d, want %d", c.a, c.frac, got, c.want)
		}
	}
}
