// Package attack implements the adversary model of Sections 6–7 of the
// LAD paper.
//
// Observation-space adversaries: a victim whose untainted observation
// would be a = (a_1 … a_n) has up to x compromised neighbors. Under the
// Dec-Bounded class the attacker may raise any component arbitrarily
// (impersonation, multi-impersonation, range change) but decreases cost
// one compromised node each (silence attacks):
//
//	Σ_{i: a_i > o_i} (a_i − o_i) ≤ x .
//
// Under the Dec-Only class (authentication + wormhole detection + no node
// movement) only silence remains:
//
//	o_i ≤ a_i ∀i  and  Σ (a_i − o_i) ≤ x .
//
// Within a class the attacker is greedy per Section 7.1: knowing the
// detection metric and the expected observation µ at the forged location,
// it shapes o to minimize the metric (or, for the Probability metric, to
// maximize the smallest per-group probability). Six strategies cover the
// 2 classes × 3 metrics.
//
// Network-level attacks (silence, impersonation, multi-impersonation,
// range change via wormhole) live in behaviors.go and operate on the
// event-driven HELLO protocol of internal/wsn.
package attack

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Class distinguishes the paper's two attack families.
type Class int

const (
	// DecBounded allows arbitrary increases; decreases consume budget.
	DecBounded Class = iota
	// DecOnly allows only decreases, with total budget x.
	DecOnly
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case DecBounded:
		return "dec-bounded"
	case DecOnly:
		return "dec-only"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Strategy taints an observation within a budget of x compromised
// neighbors. Implementations never mutate the input.
type Strategy interface {
	Name() string
	Class() Class
	Taint(a []int, x int) []int
}

// Compromised is the attacker's node budget against observation a:
// x = ⌈xFrac·|a|⌉ compromised neighbors per §7.1, where |a| is the
// victim's neighbor count. The 1e-9 slack keeps binary-float noise
// (0.07*100 = 7.000000000000001) from rounding an exact product up and
// granting a phantom extra node.
func Compromised(a []int, xFrac float64) int {
	total := 0
	for _, c := range a {
		total += c
	}
	return int(math.Ceil(xFrac*float64(total) - 1e-9))
}

// SatisfiesDecBounded reports whether tainted observation o is reachable
// from a under the Dec-Bounded constraint with budget x.
func SatisfiesDecBounded(a, o []int, x int) bool {
	if len(a) != len(o) {
		return false
	}
	dec := 0
	for i := range a {
		if o[i] < 0 {
			return false
		}
		if a[i] > o[i] {
			dec += a[i] - o[i]
		}
	}
	return dec <= x
}

// SatisfiesDecOnly reports whether o is reachable from a under the
// Dec-Only constraint with budget x.
func SatisfiesDecOnly(a, o []int, x int) bool {
	if len(a) != len(o) {
		return false
	}
	dec := 0
	for i := range a {
		if o[i] < 0 || o[i] > a[i] {
			return false
		}
		dec += a[i] - o[i]
	}
	return dec <= x
}

// DiffMinimizer implements the Section 7.1 greedy against the Diff metric
// DM = Σ|o_i − µ_i|: free raises to µ_i where allowed, then budgeted
// decreases toward µ_i, spending first where the per-unit gain is full.
type DiffMinimizer struct {
	mu    []float64
	class Class
}

// NewDiffMinimizer builds the strategy for the expected observation µ at
// the forged location.
func NewDiffMinimizer(mu []float64, class Class) *DiffMinimizer {
	return &DiffMinimizer{mu: mu, class: class}
}

// Name implements Strategy.
func (d *DiffMinimizer) Name() string { return "greedy-diff/" + d.class.String() }

// Class implements Strategy.
func (d *DiffMinimizer) Class() Class { return d.class }

// Taint implements Strategy.
func (d *DiffMinimizer) Taint(a []int, x int) []int {
	o := append([]int(nil), a...)
	if d.class == DecBounded {
		// Case 1 of the paper's procedure: where µ_i > a_i the attacker
		// raises o_i for free; the integer nearest µ_i minimizes |o_i−µ_i|.
		for i := range o {
			target := int(math.Round(d.mu[i]))
			if target > o[i] {
				o[i] = target
			}
		}
	}
	// Case 2: decreases consume budget. Spending a unit on the group with
	// the largest excess o_i − µ_i always yields the maximal gain
	// (1 per unit while the excess exceeds 1, then the fractional tail).
	spendDecrements(o, x, func(i int) float64 {
		excess := float64(o[i]) - d.mu[i]
		if excess <= 0 {
			return 0
		}
		// Gain of decrementing: |o−µ| shrinks by min(1, 2·excess−1 … );
		// exactly: new |o−1−µ| vs old |o−µ|.
		oldD := math.Abs(float64(o[i]) - d.mu[i])
		newD := math.Abs(float64(o[i]-1) - d.mu[i])
		return oldD - newD
	})
	return o
}

// AddAllMinimizer attacks the Add-all metric AM = Σ max(o_i, µ_i).
// Increases never reduce AM, so Dec-Bounded and Dec-Only behave
// identically: spend the budget decreasing components that exceed µ.
type AddAllMinimizer struct {
	mu    []float64
	class Class
}

// NewAddAllMinimizer builds the strategy for expected observation µ.
func NewAddAllMinimizer(mu []float64, class Class) *AddAllMinimizer {
	return &AddAllMinimizer{mu: mu, class: class}
}

// Name implements Strategy.
func (m *AddAllMinimizer) Name() string { return "greedy-addall/" + m.class.String() }

// Class implements Strategy.
func (m *AddAllMinimizer) Class() Class { return m.class }

// Taint implements Strategy.
func (m *AddAllMinimizer) Taint(a []int, x int) []int {
	o := append([]int(nil), a...)
	spendDecrements(o, x, func(i int) float64 {
		// max(o_i, µ_i) shrinks by 1 per decrement while o_i−1 >= µ_i.
		if float64(o[i]-1) >= m.mu[i] {
			return 1
		}
		if float64(o[i]) > m.mu[i] {
			return float64(o[i]) - m.mu[i] // partial tail gain
		}
		return 0
	})
	return o
}

// ProbMaximizer attacks the Probability metric: the detector alarms when
// min_i Pr(X_i = o_i | L_e) falls below a threshold, so the attacker
// *maximizes the minimum* per-group probability. Free raises (Dec-Bounded)
// move low components to the binomial mode; budgeted decreases
// water-fill the current minimum.
type ProbMaximizer struct {
	g     []float64 // g_i(L_e)
	m     int       // group size
	class Class
}

// NewProbMaximizer builds the strategy for neighbor probabilities g at
// the forged location and group size m.
func NewProbMaximizer(g []float64, m int, class Class) *ProbMaximizer {
	return &ProbMaximizer{g: g, m: m, class: class}
}

// Name implements Strategy.
func (p *ProbMaximizer) Name() string { return "greedy-prob/" + p.class.String() }

// Class implements Strategy.
func (p *ProbMaximizer) Class() Class { return p.class }

// Taint implements Strategy.
func (p *ProbMaximizer) Taint(a []int, x int) []int {
	o := append([]int(nil), a...)
	if p.class == DecBounded {
		// Free raises: lift every below-mode component to the mode (the
		// pmf argmax).
		for i := range o {
			mode := mathx.BinomMode(p.m, p.g[i])
			if o[i] < mode {
				o[i] = mode
			}
		}
	}
	// Water-filling: repeatedly decrement the component with the lowest
	// probability, provided the decrement helps (above the mode).
	for x > 0 {
		worst, worstP := -1, math.Inf(1)
		for i := range o {
			pm := mathx.BinomPMF(o[i], p.m, p.g[i])
			if pm < worstP {
				worst, worstP = i, pm
			}
		}
		if worst < 0 {
			break
		}
		mode := mathx.BinomMode(p.m, p.g[worst])
		if o[worst] <= mode || o[worst] == 0 {
			break // the minimum sits at/below its mode: silence cannot help
		}
		o[worst]--
		x--
	}
	return o
}

// spendDecrements spends up to x unit decrements over o, each time
// choosing the index with the largest positive gain as reported by gain.
// It stops early when no positive gain remains.
func spendDecrements(o []int, x int, gain func(i int) float64) {
	for ; x > 0; x-- {
		best, bestGain := -1, 0.0
		for i := range o {
			if o[i] == 0 {
				continue
			}
			if g := gain(i); g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			return
		}
		o[best]--
	}
}
