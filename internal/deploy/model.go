// Package deploy implements the deployment-knowledge model of Section 3
// of the LAD paper: group-based deployment over a field, an isotropic
// two-dimensional Gaussian resident-point distribution around each
// deployment point, and the neighborhood-probability function g(z) of
// Theorem 1 together with its table-lookup approximation.
//
// A deploy.Model is the single source of truth shared by the network
// simulator (to place nodes), the beaconless localization scheme (as its
// likelihood model), and the LAD detector (to compute expected
// observations µ).
package deploy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Layout enumerates supported deployment-point arrangements. The paper
// evaluates the grid layout and notes the scheme "can be easily extended"
// to hexagonal and random layouts; all three are provided.
type Layout int

const (
	// LayoutGrid places deployment points at the centers of equal square
	// cells — the paper's evaluation setup (Figure 1).
	LayoutGrid Layout = iota
	// LayoutHex places deployment points on a hexagonal (offset-row)
	// lattice with approximately the same point density as the grid.
	LayoutHex
	// LayoutRandom scatters deployment points uniformly over the field
	// (their coordinates are still known to every sensor).
	LayoutRandom
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutGrid:
		return "grid"
	case LayoutHex:
		return "hex"
	case LayoutRandom:
		return "random"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Config describes a group-based deployment.
type Config struct {
	Field      geom.Rect // deployment area
	GroupsX    int       // grid columns (LayoutGrid/LayoutHex)
	GroupsY    int       // grid rows (LayoutGrid/LayoutHex)
	GroupSize  int       // m: nodes per group
	Sigma      float64   // std-dev of the Gaussian resident-point spread
	Range      float64   // R: wireless transmission range
	Layout     Layout
	RandomSeed uint64 // seed for LayoutRandom point placement
}

// PaperConfig returns the exact evaluation setup of Section 7.1: a
// 1000 m × 1000 m field divided into 10×10 cells of 100 m, deployment
// points at cell centers, σ = 50. The paper does not state R; 50 m is the
// package default (see DESIGN.md).
func PaperConfig() Config {
	return Config{
		Field:     geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)),
		GroupsX:   10,
		GroupsY:   10,
		GroupSize: 300,
		Sigma:     50,
		Range:     50,
		Layout:    LayoutGrid,
	}
}

// MaxExtent bounds every length in a Config, in meters: the absolute
// value of each field corner coordinate, the field's width and height,
// Sigma, and Range. It sits four orders of magnitude above the largest
// deployment anywhere in this repository (a 2000 m field) and keeps the
// g(z) table build, the spatial index, and resident-point sampling in
// well-conditioned floating-point territory — without it a single
// request spec with Sigma 1e300 or Range 1e160 could crash or wedge the
// process that builds the model.
const MaxExtent = 1e7

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	inExtent := func(v float64) bool { return math.Abs(v) <= MaxExtent } // false for NaN
	switch {
	case !inExtent(c.Field.Min.X) || !inExtent(c.Field.Min.Y) ||
		!inExtent(c.Field.Max.X) || !inExtent(c.Field.Max.Y):
		return fmt.Errorf("deploy: field corners must be finite and within ±%g m", MaxExtent)
	case c.Field.Width() <= 0 || c.Field.Height() <= 0:
		return errors.New("deploy: empty field")
	case c.Field.Width() > MaxExtent || c.Field.Height() > MaxExtent:
		return fmt.Errorf("deploy: field wider or taller than %g m", MaxExtent)
	case c.GroupsX < 1 || c.GroupsY < 1:
		return errors.New("deploy: need at least one group per axis")
	case c.GroupSize < 1:
		return errors.New("deploy: group size must be positive")
	case !(c.Sigma > 0 && c.Sigma <= MaxExtent):
		return fmt.Errorf("deploy: sigma must be in (0, %g] m", MaxExtent)
	case !(c.Range > 0 && c.Range <= MaxExtent):
		return fmt.Errorf("deploy: transmission range must be in (0, %g] m", MaxExtent)
	default:
		return nil
	}
}

// Model is an immutable deployment-knowledge instance: the deployment
// points plus the spread/range parameters, the precomputed g(z) table,
// and a spatial index over the deployment points. It is safe for
// concurrent use.
type Model struct {
	cfg    Config
	points []geom.Point // deployment point of group i
	gTable *GTable
	// index buckets the deployment points so the hot paths visit only
	// groups within GTable.MaxZ() of a location instead of all n.
	index   *groupIndex
	scratch scratchPool
	// binom lazily caches the epoch-2 inverse-CDF observation samplers,
	// one per (trials, z-bin) — see binom.go. Epoch-1 sampling never
	// touches it.
	binom binomCache
}

// New constructs a Model from the configuration, laying out deployment
// points and precomputing the g(z) lookup table with DefaultOmega
// sub-ranges.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg}
	switch cfg.Layout {
	case LayoutGrid:
		m.points = gridPoints(cfg)
	case LayoutHex:
		m.points = hexPoints(cfg)
	case LayoutRandom:
		m.points = randomPoints(cfg)
	default:
		return nil, fmt.Errorf("deploy: unknown layout %v", cfg.Layout)
	}
	m.gTable = NewGTable(cfg.Range, cfg.Sigma, DefaultOmega)
	m.index = newGroupIndex(m.points)
	m.binom.init(m.gTable, cfg.GroupSize)
	return m, nil
}

// MustNew is New, panicking on error; for tests and examples with static
// configurations.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func gridPoints(cfg Config) []geom.Point {
	cw := cfg.Field.Width() / float64(cfg.GroupsX)
	ch := cfg.Field.Height() / float64(cfg.GroupsY)
	pts := make([]geom.Point, 0, cfg.GroupsX*cfg.GroupsY)
	for gy := 0; gy < cfg.GroupsY; gy++ {
		for gx := 0; gx < cfg.GroupsX; gx++ {
			pts = append(pts, geom.Pt(
				cfg.Field.Min.X+(float64(gx)+0.5)*cw,
				cfg.Field.Min.Y+(float64(gy)+0.5)*ch,
			))
		}
	}
	return pts
}

func hexPoints(cfg Config) []geom.Point {
	cw := cfg.Field.Width() / float64(cfg.GroupsX)
	ch := cfg.Field.Height() / float64(cfg.GroupsY)
	pts := make([]geom.Point, 0, cfg.GroupsX*cfg.GroupsY)
	for gy := 0; gy < cfg.GroupsY; gy++ {
		// Offset odd rows by half a cell, wrapping inside the field.
		off := 0.0
		if gy%2 == 1 {
			off = cw / 2
		}
		for gx := 0; gx < cfg.GroupsX; gx++ {
			x := cfg.Field.Min.X + math.Mod((float64(gx)+0.5)*cw+off, cfg.Field.Width())
			pts = append(pts, geom.Pt(x, cfg.Field.Min.Y+(float64(gy)+0.5)*ch))
		}
	}
	return pts
}

func randomPoints(cfg Config) []geom.Point {
	r := rng.New(cfg.RandomSeed)
	n := cfg.GroupsX * cfg.GroupsY
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			r.Uniform(cfg.Field.Min.X, cfg.Field.Max.X),
			r.Uniform(cfg.Field.Min.Y, cfg.Field.Max.Y),
		)
	}
	return pts
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// NumGroups returns n, the number of deployment groups.
func (m *Model) NumGroups() int { return len(m.points) }

// GroupSize returns m, the number of nodes per group.
func (m *Model) GroupSize() int { return m.cfg.GroupSize }

// TotalNodes returns N = n·m.
func (m *Model) TotalNodes() int { return m.NumGroups() * m.cfg.GroupSize }

// Range returns the transmission range R.
func (m *Model) Range() float64 { return m.cfg.Range }

// Sigma returns the deployment spread σ.
func (m *Model) Sigma() float64 { return m.cfg.Sigma }

// Field returns the deployment area.
func (m *Model) Field() geom.Rect { return m.cfg.Field }

// DeploymentPoint returns the deployment point of group i.
func (m *Model) DeploymentPoint(i int) geom.Point { return m.points[i] }

// DeploymentPoints returns a copy of all deployment points, indexed by
// group id.
func (m *Model) DeploymentPoints() []geom.Point {
	return append([]geom.Point(nil), m.points...)
}

// Points returns the deployment points as a shared, read-only view
// indexed by group id — the bulk-export accessor the localization probe
// engine uses to materialize its structure-of-arrays coordinate buffers
// without one DeploymentPoint call per group. The slice is the model's
// own backing array, not a copy; callers must not modify it (the model
// is immutable and shared across goroutines). Use DeploymentPoints for
// an owned copy.
func (m *Model) Points() []geom.Point { return m.points }

// GTable returns the model's precomputed g(z) lookup table.
func (m *Model) GTable() *GTable { return m.gTable }

// NearGroupsInto appends to dst (usually dst[:0] of a reusable buffer)
// the ids of every group whose deployment point lies within radius of
// loc, sorted ascending, and returns the extended slice. The result may
// additionally include a few groups slightly beyond radius (pruning is
// done at spatial-grid-cell granularity): callers that need an exact
// boundary must re-test each candidate, which keeps indexed code paths
// bit-identical to full scans regardless of floating-point rounding at
// the boundary. Any finite or infinite radius and query point are
// accepted; a radius covering the whole deployment returns every group.
func (m *Model) NearGroupsInto(dst []int32, loc geom.Point, radius float64) []int32 {
	return m.index.appendNear(dst, loc, radius)
}

// PDF returns the resident-point density f_k^i(x, y | k ∈ G_i) for a node
// of group i at location p (Section 3.2).
func (m *Model) PDF(group int, p geom.Point) float64 {
	d := p.Sub(m.points[group])
	s2 := m.cfg.Sigma * m.cfg.Sigma
	return math.Exp(-d.Len2()/(2*s2)) / (2 * math.Pi * s2)
}

// SampleResident draws a resident point for a node of group i.
func (m *Model) SampleResident(group int, r *rng.Rand) geom.Point {
	dx, dy := r.Gauss2D(m.cfg.Sigma)
	return m.points[group].Add(geom.V(dx, dy))
}

// SampleLocation draws the resident point of a uniformly random node
// (uniform group, Gaussian offset) and returns both. This is how the
// experiment harness picks victim sensors.
func (m *Model) SampleLocation(r *rng.Rand) (group int, p geom.Point) {
	group = r.Intn(m.NumGroups())
	return group, m.SampleResident(group, r)
}

// G returns g_i(θ): the probability that a node of group i lands within
// transmission range of the point θ, via the lookup table.
func (m *Model) G(group int, theta geom.Point) float64 {
	return m.gTable.Eval(theta.Dist(m.points[group]))
}

// GExact is G using the exact Theorem 1 integral instead of the table.
func (m *Model) GExact(group int, theta geom.Point) float64 {
	return GExact(theta.Dist(m.points[group]), m.cfg.Range, m.cfg.Sigma)
}

// ExpectedObservation computes µ = (µ_1 … µ_n) at a location:
// µ_i = m·g_i(L) (Equation 2). The result is freshly allocated.
func (m *Model) ExpectedObservation(loc geom.Point) []float64 {
	mu := make([]float64, m.NumGroups())
	m.ExpectedObservationInto(mu, loc)
	return mu
}

// ExpectedObservationInto fills dst (length NumGroups) with µ at loc,
// avoiding allocation in Monte-Carlo loops. Only groups within
// GTable.MaxZ() of loc are evaluated (g is exactly zero beyond); the
// spatial index finds them without scanning all n, and the per-group
// arithmetic is identical to a full scan's, so results are bit-identical
// to one (index_test.go holds the full-scan oracles).
func (m *Model) ExpectedObservationInto(dst []float64, loc geom.Point) {
	if len(dst) != m.NumGroups() {
		panic("deploy: ExpectedObservationInto length mismatch")
	}
	mm := float64(m.cfg.GroupSize)
	maxZ := m.gTable.MaxZ()
	clear(dst)
	near := m.scratch.get()
	*near = m.index.appendNear((*near)[:0], loc, maxZ)
	for _, i := range *near {
		z := loc.Dist(m.points[i])
		if z >= maxZ {
			continue
		}
		dst[i] = mm * m.gTable.Eval(z)
	}
	m.scratch.put(near)
}

// SampleObservation draws an observation o = (o_1 … o_n) for a sensor at
// loc: o_i ~ Binomial(m, g_i(loc)), the paper's probabilistic model of
// neighbor counts. self is the victim's own group; the victim itself is
// not its own neighbor, so one trial is removed from that group.
func (m *Model) SampleObservation(loc geom.Point, self int, r *rng.Rand) []int {
	o := make([]int, m.NumGroups())
	m.SampleObservationInto(o, loc, self, r)
	return o
}

// SampleObservationInto is SampleObservation writing into dst. The
// spatial index prunes the scan to groups near loc; candidates are
// visited in ascending group order and re-tested with the same z >= MaxZ
// predicate a full scan would use, so the binomial draws consume the RNG
// stream exactly as a scan over all n groups does (index_test.go pins
// this against a full-scan oracle).
func (m *Model) SampleObservationInto(dst []int, loc geom.Point, self int, r *rng.Rand) {
	if len(dst) != m.NumGroups() {
		panic("deploy: SampleObservationInto length mismatch")
	}
	maxZ := m.gTable.MaxZ()
	clear(dst)
	near := m.scratch.get()
	*near = m.index.appendNear((*near)[:0], loc, maxZ)
	for _, i := range *near {
		z := loc.Dist(m.points[i])
		if z >= maxZ {
			continue
		}
		trials := m.cfg.GroupSize
		if int(i) == self {
			trials-- // a sensor does not observe itself
		}
		dst[i] = r.Binomial(trials, m.gTable.Eval(z))
	}
	m.scratch.put(near)
}

// GMuInto fills g (g_i(loc)) and mu (m·g_i(loc)) in one indexed pass —
// the detector's Expectation.Fill hot path. Both slices must have length
// NumGroups; far groups are set to exactly 0, matching what GTable.Eval
// returns beyond MaxZ, so the results are bit-identical to evaluating
// every group.
func (m *Model) GMuInto(g, mu []float64, loc geom.Point) {
	if len(g) != m.NumGroups() || len(mu) != m.NumGroups() {
		panic("deploy: GMuInto length mismatch")
	}
	mm := float64(m.cfg.GroupSize)
	maxZ := m.gTable.MaxZ()
	clear(g)
	clear(mu)
	near := m.scratch.get()
	*near = m.index.appendNear((*near)[:0], loc, maxZ)
	for _, i := range *near {
		gi := m.gTable.Eval(loc.Dist(m.points[i]))
		g[i] = gi
		mu[i] = mm * gi
	}
	m.scratch.put(near)
}

// ExpectedDegree returns the expected total number of neighbors of a
// sensor at loc: Σ_i m·g_i(loc). Far groups contribute exactly zero, so
// summing only the indexed candidates (in ascending group order) is
// bit-identical to a full scan.
func (m *Model) ExpectedDegree(loc geom.Point) float64 {
	var sum float64
	mm := float64(m.cfg.GroupSize)
	near := m.scratch.get()
	*near = m.index.appendNear((*near)[:0], loc, m.gTable.MaxZ())
	for _, i := range *near {
		sum += mm * m.G(int(i), loc)
	}
	m.scratch.put(near)
	return sum
}
