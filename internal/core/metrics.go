// Package core implements LAD, the paper's contribution: localization
// anomaly detection from deployment knowledge. A sensor that has derived
// a location L_e compares its actual observation o (neighbor counts per
// deployment group) with the expected observation µ at L_e; a large
// inconsistency indicates that the localization was attacked.
//
// Three inconsistency metrics are provided (Section 5), all normalized
// here to anomaly *scores* where larger means more anomalous, so one
// trainer and one ROC builder serve all three:
//
//   - Diff:        DM = Σ_i |o_i − µ_i|
//   - Add-all:     AM = Σ_i max(o_i, µ_i)
//   - Probability: score = −ln min_i Pr(X_i = o_i | L_e)
//     (the paper alarms when the min probability is *below* a threshold,
//     which is equivalent to this score being *above* −ln of it).
//
// Thresholds are obtained by training on simulated benign deployments
// (Section 5.5): the τ-percentile of the benign score distribution, with
// 1−τ the target false-positive rate.
package core

import (
	"math"
	"sync/atomic"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/mathx"
)

// Expectation bundles what LAD knows about a claimed location L_e: the
// per-group neighbor probabilities g_i(L_e) and the expected counts
// µ_i = m·g_i(L_e). Computing it once per verdict amortizes the g-table
// lookups across metrics.
//
// An expectation that is reused across requests (the detector's
// expectation cache arms this on the first reuse) additionally carries a
// lazily built per-group binomial log-PMF table, turning Probability-
// metric scoring into an index lookup; see EnablePMFTable.
type Expectation struct {
	Loc geom.Point
	G   []float64 // g_i(L_e)
	Mu  []float64 // m·g_i(L_e)
	M   int       // group size m

	// pmf is the optional log-PMF table; nil means the Probability
	// metric evaluates mathx.BinomLogPMF directly. Atomic because the
	// cache arms it on a shared expectation while other goroutines score.
	pmf atomic.Pointer[pmfTable]
	// uses counts cache hits on this expectation; the table is armed on
	// the first reuse so one-shot locations never pay the table build.
	uses atomic.Uint64
	// charged/pmfCharged record whether this resident cache entry holds
	// byte reservations against the cache's shared budget (entry bytes
	// and armed-PMF bytes respectively). Guarded by the owning cache
	// shard's mutex; meaningless outside a cache.
	charged    bool
	pmfCharged bool
}

// NewExpectation evaluates the deployment knowledge at le.
func NewExpectation(model *deploy.Model, le geom.Point) *Expectation {
	n := model.NumGroups()
	e := &Expectation{
		G:  make([]float64, n),
		Mu: make([]float64, n),
	}
	e.Fill(model, le)
	return e
}

// Fill re-evaluates the expectation at le in place, reusing the G/Mu
// buffers (which must have length model.NumGroups()). The evaluation
// goes through the model's spatially indexed deploy.Model.GMuInto, which
// is bit-identical to scanning every group, so the reused scratch of
// training trials and corrections scores exactly like a fresh or cached
// expectation.
func (e *Expectation) Fill(model *deploy.Model, le geom.Point) {
	n := model.NumGroups()
	if len(e.G) != n || len(e.Mu) != n {
		panic("core: Expectation.Fill buffer length mismatch")
	}
	e.Loc = le
	e.M = model.GroupSize()
	e.pmf.Store(nil) // the table belongs to the previous location
	e.uses.Store(0)
	model.GMuInto(e.G, e.Mu, le)
}

// EnablePMFTable arms table-driven Probability scoring on e. The table
// itself is still built lazily (the first probability score after
// arming pays the n × (m+1) evaluations); oversized deployments
// (numGroups × (m+1) > maxPMFTableEntries) are left on the direct path,
// where the table would cost more memory than it saves. Safe to call
// concurrently with scoring.
func (e *Expectation) EnablePMFTable() {
	n := len(e.G)
	if n*(e.M+1) > maxPMFTableEntries {
		return
	}
	if e.pmf.Load() == nil {
		e.pmf.CompareAndSwap(nil, &pmfTable{})
	}
}

// LogPMF returns ln P(X_i = k) for group i at the claimed location,
// X_i ~ Binomial(m, g_i(L_e)): a table read when the log-PMF table is
// armed and k is in range, the direct mathx.BinomLogPMF call otherwise.
// Table entries are computed by mathx.BinomLogPMF itself, so both paths
// are bit-identical.
func (e *Expectation) LogPMF(i, k int) float64 {
	if t := e.pmf.Load(); t != nil && k >= 0 && k <= e.M {
		return t.get(e.M, e.G)[i][k]
	}
	return mathx.BinomLogPMF(k, e.M, e.G[i])
}

// Metric converts an observation and an expectation into an anomaly
// score; larger is more anomalous. Implementations must be stateless and
// safe for concurrent use.
type Metric interface {
	Name() string
	Score(o []int, e *Expectation) float64
}

// DiffMetric is the paper's Difference metric (Section 5.2).
type DiffMetric struct{}

// Name implements Metric.
func (DiffMetric) Name() string { return "diff" }

// Score implements Metric: Σ_i |o_i − µ_i|.
func (DiffMetric) Score(o []int, e *Expectation) float64 {
	var sum float64
	for i, c := range o {
		sum += math.Abs(float64(c) - e.Mu[i])
	}
	return sum
}

// AddAllMetric is the paper's Add-all metric (Section 5.3).
type AddAllMetric struct{}

// Name implements Metric.
func (AddAllMetric) Name() string { return "add-all" }

// Score implements Metric: Σ_i max(o_i, µ_i) — the size of the union of
// the actual and expected observations.
func (AddAllMetric) Score(o []int, e *Expectation) float64 {
	var sum float64
	for i, c := range o {
		sum += math.Max(float64(c), e.Mu[i])
	}
	return sum
}

// ProbMetric is the paper's Probability metric (Section 5.4).
type ProbMetric struct{}

// Name implements Metric.
func (ProbMetric) Name() string { return "probability" }

// Score implements Metric: −ln min_i Binom(m, g_i(L_e))(o_i). Clamped
// probabilities keep the score finite for impossible observations: a
// count outside [0, m], which no binomial draw yields but a flooding
// attacker does, scores above every count in [0, m], so it alarms under
// any trained threshold.
// It panics on a zero-group observation: the min over nothing would be
// −Inf (never alarms), silently disabling detection for a caller bug.
func (ProbMetric) Score(o []int, e *Expectation) float64 {
	if len(o) == 0 {
		panic("core: ProbMetric.Score of an empty observation")
	}
	worst := math.Inf(-1)
	if t := e.pmf.Load(); t != nil {
		// Table-driven fast path: one bounds check and two slice reads
		// per group.
		rows := t.get(e.M, e.G)
		for i, c := range o {
			var nl float64
			if uint(c) <= uint(e.M) {
				nl = -rows[i][c]
			} else {
				nl = outOfSupportScore(e.M)
			}
			if nl > worst {
				worst = nl
			}
		}
		return worst
	}
	for i, c := range o {
		var nl float64
		if uint(c) <= uint(e.M) {
			nl = -mathx.BinomLogPMF(c, e.M, e.G[i])
		} else {
			nl = outOfSupportScore(e.M)
		}
		if nl > worst {
			worst = nl
		}
	}
	return worst
}

// outOfSupportScore is ProbMetric's score for a count outside [0, m]:
// (m+1)·ln(1/BinomClampEps), above the m·ln(1/BinomClampEps) bound on
// every count in [0, m].
func outOfSupportScore(m int) float64 {
	return -float64(m+1) * math.Log(mathx.BinomClampEps)
}

// AllMetrics returns the three paper metrics in presentation order.
func AllMetrics() []Metric {
	return []Metric{DiffMetric{}, AddAllMetric{}, ProbMetric{}}
}

// MetricByName resolves a metric from its Name(), or nil.
func MetricByName(name string) Metric {
	for _, m := range AllMetrics() {
		if m.Name() == name {
			return m
		}
	}
	return nil
}
