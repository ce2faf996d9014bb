package deploy

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Simulation-epoch-2 observation sampling.
//
// Epoch 1 draws o_i ~ Binomial(m, g_i(z)) with the waiting-time method
// (rng.Rand.Binomial): ~1 math.Log per accepted neighbor, O(np + 1) per
// group, and that log chain is the dominant non-localize cost of a
// training trial. Epoch 2 spends the bit-identity budget here: the
// distance z is quantized onto the same grid the g(z) table uses, and
// each (trials, z-bin) pair gets a precomputed inverse-CDF table so a
// draw is one uniform variate plus a guide-table lookup — O(1), no logs.
// The sampled distribution is Binomial(trials, g(z_bin)) instead of
// Binomial(trials, g(z)): the quantization error in p is the same order
// as the g-table's own interpolation error (~1e-4 for the paper
// parameters), which is exactly the distribution-level tolerance the
// epoch-2 equivalence tests (threshold/detection-rate/FPR bands) bound.
//
// Tables build lazily, once per touched bin, into a BinomTables set
// that a training run holds while it runs (Model.BinomTables). The set
// lives outside the Model: a ready detector's model, a pool's shared
// models and a reference model never pin it, and runs of the same
// (GroupSize, R, σ, ω) that overlap in time share one set through a
// process-wide map of weak pointers. Its bins are atomic pointers, so
// concurrent training workers may race to build the same bin but always
// install byte-identical tables (the build is deterministic).

// binomGuideFactor sizes a table's guide index relative to its support:
// 2× support cells keep the expected linear-scan length per draw near 1.
const binomGuideFactor = 2

// binomTailCut truncates a table's support where the PMF falls below
// mode·binomTailCut; the lost tail mass (< ~1e-13) is redistributed by
// normalization. Far below the epoch-2 tolerance bands.
const binomTailCut = 1e-16

// binomTable is an inverse-CDF sampler for Binomial(n, p) over the
// truncated support [base, base+len(cdf)-1]. cdf[k] is the cumulative
// probability of base+k, normalized so the last entry is exactly 1;
// guide[j] is the smallest k with cdf[k] > j/len(guide), so a draw
// starts its scan at most a couple of entries from the answer.
type binomTable struct {
	base  int32
	cdf   []float64
	guide []int32
}

// draw maps a uniform u in [0, 1) through the inverse CDF: the smallest
// support value whose cumulative probability exceeds u.
//
//lad:noalloc
func (t *binomTable) draw(u float64) int {
	cdf := t.cdf
	if len(cdf) == 1 {
		return int(t.base)
	}
	k := int(t.guide[int(u*float64(len(t.guide)))])
	for u >= cdf[k] {
		k++
	}
	return int(t.base) + k
}

// binomPMF evaluates the Binomial(n, p) PMF at k through lgamma — used
// only to seed the build recurrence at the mode, where exp() is far from
// underflow for any n this package meets.
func binomPMF(n, k int, lnP, ln1P float64) float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(k + 1))
	lgNK, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(lgN - lgK - lgNK + float64(k)*lnP + float64(n-k)*ln1P)
}

// newBinomTable builds the inverse-CDF table for Binomial(n, p): PMF by
// the two-sided recurrence from the mode (numerically safe for any n,
// unlike starting from (1−p)^n), truncated at binomTailCut relative to
// the mode, cumulated, and normalized.
func newBinomTable(n int, p float64) *binomTable {
	if n <= 0 || p <= 0 {
		return &binomTable{base: 0, cdf: []float64{1}}
	}
	if p >= 1 {
		return &binomTable{base: int32(n), cdf: []float64{1}}
	}
	lnP, ln1P := math.Log(p), math.Log1p(-p)
	mode := int(float64(n+1) * p)
	if mode > n {
		mode = n
	}
	peak := binomPMF(n, mode, lnP, ln1P)
	cut := peak * binomTailCut

	// Expand the support outward from the mode until the PMF falls under
	// the cut. ratio(k→k+1) = (n−k)/(k+1) · p/(1−p).
	odds := p / (1 - p)
	lo, hi := mode, mode
	for w := peak; lo > 0; {
		w = w * float64(lo) / (float64(n-lo+1) * odds)
		if w < cut {
			break
		}
		lo--
	}
	hi = mode
	for w := peak; hi < n; {
		w = w * float64(n-hi) * odds / float64(hi+1)
		if w < cut {
			break
		}
		hi++
	}

	cdf := make([]float64, hi-lo+1)
	w := binomPMF(n, lo, lnP, ln1P)
	sum := 0.0
	for k := lo; k <= hi; k++ {
		sum += w
		cdf[k-lo] = sum
		w = w * float64(n-k) * odds / float64(k+1)
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[len(cdf)-1] = 1 // exact upper bound so draw's scan always terminates

	guideLen := binomGuideFactor * len(cdf)
	if guideLen < 8 {
		guideLen = 8
	}
	guide := make([]int32, guideLen)
	k := 0
	for j := range guide {
		t := float64(j) / float64(guideLen)
		for cdf[k] <= t {
			k++
		}
		guide[j] = int32(k)
	}
	return &binomTable{base: int32(lo), cdf: cdf, guide: guide}
}

// BinomTables is one lazily built set of epoch-2 samplers, one per
// (trials, z-bin). Bins reuse the g-table's grid over [0, MaxZ]; slot
// layout is full-group tables first, then self-group (m−1 trials)
// tables. Every model with the same key samples identically from it.
type BinomTables struct {
	key     binomKey
	tables  []atomic.Pointer[binomTable]
	step    float64 // MaxZ / omega: the z quantization grid
	invStep float64
	g       *GTable
}

// binomKey is everything a set's tables depend on: the group size
// (trials per draw) and the g-table's (R, σ, ω).
type binomKey struct {
	groupSize int
	r, sigma  float64
	omega     int
}

// binomRegistry maps each key to the set some holder currently has.
// Entries are weak: a set lives exactly as long as someone holds it, and
// its cleanup removes the dead entry.
type binomRegistry struct {
	mu sync.Mutex
	//lad:guardedby mu
	sets map[binomKey]weak.Pointer[BinomTables]
}

// liveBinom is the process-wide registry Model.BinomTables shares sets
// through.
var liveBinom = binomRegistry{sets: make(map[binomKey]weak.Pointer[BinomTables])}

func (m *Model) binomKey() binomKey {
	return binomKey{groupSize: m.cfg.GroupSize, r: m.cfg.Range, sigma: m.cfg.Sigma, omega: m.gTable.Omega()}
}

// BinomTables returns the epoch-2 sampler tables for the model's
// (GroupSize, R, σ, ω): the set another holder already has, or a new,
// empty one. The model keeps no reference: the caller holds the set for
// as long as it samples (core.TrainRun does for the length of a run),
// and once no caller holds it the garbage collector frees it.
func (m *Model) BinomTables() *BinomTables {
	k := m.binomKey()
	liveBinom.mu.Lock()
	defer liveBinom.mu.Unlock()
	if t := liveBinom.sets[k].Value(); t != nil {
		return t
	}
	step := m.gTable.MaxZ() / float64(k.omega)
	t := &BinomTables{
		key:     k,
		tables:  make([]atomic.Pointer[binomTable], 2*(k.omega+1)),
		step:    step,
		invStep: 1 / step,
		g:       m.gTable,
	}
	liveBinom.sets[k] = weak.Make(t)
	runtime.AddCleanup(t, dropBinomEntry, k)
	return t
}

// dropBinomEntry removes k's map entry once its set is collected,
// unless a newer set has taken the key since.
func dropBinomEntry(k binomKey) {
	liveBinom.mu.Lock()
	defer liveBinom.mu.Unlock()
	if liveBinom.sets[k].Value() == nil {
		delete(liveBinom.sets, k)
	}
}

// tableFor returns the sampler for the given z-bin, building and caching
// it on first touch.
func (c *BinomTables) tableFor(selfGroup bool, bin int) *binomTable {
	slot := bin
	n := c.key.groupSize
	if selfGroup {
		slot += c.key.omega + 1
		n--
	}
	if t := c.tables[slot].Load(); t != nil {
		return t
	}
	//lint:ignore noalloc cache-miss path: one build per touched (trials, z-bin), amortized across every later draw
	t := newBinomTable(n, c.g.Eval(float64(bin)*c.step))
	c.tables[slot].Store(t)
	return t
}

// SampleObservationTableInto is the simulation-epoch-2 counterpart of
// SampleObservationInto: o_i ~ Binomial(trials, g_i(z_bin)) drawn through
// t, the model's BinomTables, with z quantized to the nearest g-table
// grid point. One uniform variate is consumed per group within MaxZ, in
// ascending group order, so the draw stream is identical to a full scan
// over all n groups (binom_test.go pins it against that oracle, the
// epoch-2 analogue of the epoch-1 index bit-identity). It is NOT
// stream-compatible with the epoch-1 sampler — that is the point of the
// epoch split; see the cross-epoch distribution-level equivalence tests.
//
//lad:noalloc
func (m *Model) SampleObservationTableInto(t *BinomTables, dst []int, loc geom.Point, self int, r *rng.Rand) {
	if len(dst) != m.NumGroups() {
		panic("deploy: SampleObservationTableInto length mismatch")
	}
	if t.key != m.binomKey() {
		panic("deploy: SampleObservationTableInto tables of another deployment")
	}
	// Distances via sqrt(dx²+dy²) instead of the overflow-hardened
	// math.Hypot the epoch-1 path shares with scoring: field coordinates
	// are O(10³) m, far from any overflow, and epoch 2 owes only
	// distribution-level fidelity.
	maxZ := m.gTable.MaxZ()
	clear(dst)
	near := m.scratch.get()
	*near = m.index.appendNear((*near)[:0], loc, maxZ)
	for _, i := range *near {
		dp := m.points[i]
		dx, dy := loc.X-dp.X, loc.Y-dp.Y
		z := math.Sqrt(dx*dx + dy*dy)
		if z >= maxZ {
			continue
		}
		dst[i] = t.sampleGroup(int(i) == self, z, r)
	}
	m.scratch.put(near)
}

// sampleGroup draws one group's neighbor count through the bin table
// nearest to z.
//
//lad:noalloc
func (c *BinomTables) sampleGroup(selfGroup bool, z float64, r *rng.Rand) int {
	bin := int(z*c.invStep + 0.5)
	if bin > c.key.omega {
		bin = c.key.omega
	}
	return c.tableFor(selfGroup, bin).draw(r.Float64())
}
