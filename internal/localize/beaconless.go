package localize

import (
	"math"
	"sync"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/wsn"
)

// Beaconless is the beaconless location-discovery scheme of the paper's
// ref [8]: a sensor estimates its location as the maximizer of the
// likelihood of its observed per-group neighbor counts under the
// deployment knowledge,
//
//	L_e = argmax_L  Σ_i  ln Binom(m, g_i(L))(o_i).
//
// The search seeds at the observation-weighted centroid of the deployment
// points and refines with an adaptive compass (pattern) search: at each
// scale it probes the axis and diagonal directions and halves the step
// when no probe improves the likelihood. The likelihood surface is smooth
// and unimodal within a cell, so this converges in a few dozen
// evaluations.
//
// The likelihood engine is built for the Section 5.5 training loop, which
// runs one localization per Monte-Carlo trial: candidate evaluation is
// table-driven in log space (deploy.GTable.LogEval2 — no math.Sqrt,
// math.Log, or math.Log1p per group), the active group set is found
// through the deployment model's spatial index, and all working state
// lives in reusable Sessions, so steady-state localization performs zero
// heap allocations. The convenience methods on Beaconless run on pooled
// Sessions and are safe for concurrent use; workers that localize in a
// loop should hold their own Session via NewSession.
type Beaconless struct {
	model *deploy.Model
	net   *wsn.Network // nil when used observation-only

	// MaxStep and MinStep bound the pattern-search step length (meters).
	// Zero values select defaults tied to the deployment cell size.
	MaxStep float64
	MinStep float64

	// simEpoch selects the simulation epoch (0 means the default, 1).
	// Epoch 1 is bit-identical to the scalar seed. Epoch ≥ 2 spends the
	// bit-identity budget: the active set keeps zero-count groups only
	// within R + epoch2TailSigmas·σ of the centroid (instead of the full
	// MaxZ = R + 6σ tail, whose per-group contribution is below ~1e-1
	// nats), and the batched pattern search polls all eight compass
	// probes from one center per round (two four-wide atN4 passes),
	// accepting the best improvement instead of replaying the scalar
	// first-improvement order. Results are distribution-level equivalent
	// to epoch 1 (threshold/detection-rate/FPR tolerance bands — see
	// core's cross-epoch tests), not bit-identical. Not synchronized:
	// configure before handing the scheme out.
	simEpoch int

	// sessions recycles Sessions for the convenience wrappers.
	sessions sync.Pool
}

// NewBeaconless builds the scheme for a deployed network.
func NewBeaconless(net *wsn.Network) *Beaconless {
	return &Beaconless{model: net.Model(), net: net}
}

// NewBeaconlessModel builds an observation-only instance (no network),
// for use with LocalizeObservation — the experiment harness path.
func NewBeaconlessModel(model *deploy.Model) *Beaconless {
	return &Beaconless{model: model}
}

// SetSimEpoch selects the simulation epoch: 0 or 1 for the bit-identical
// epoch-1 semantics (the default), ≥ 2 for the distribution-level
// epoch-2 fast path (see the simEpoch field). Not synchronized:
// configure before handing the scheme out.
func (b *Beaconless) SetSimEpoch(epoch int) { b.simEpoch = epoch }

// SimEpoch reports the configured simulation epoch (normalized: 0 reads
// back as 1).
func (b *Beaconless) SimEpoch() int {
	if b.simEpoch < 2 {
		return 1
	}
	return b.simEpoch
}

// Name implements Scheme.
func (b *Beaconless) Name() string { return "beaconless-mle" }

// Localize implements Scheme using the node's geometric observation.
func (b *Beaconless) Localize(id wsn.NodeID) (geom.Point, error) {
	if b.net == nil {
		return geom.Point{}, ErrNoObservation
	}
	return b.LocalizeObservation(b.net.ObservationOf(id))
}

// session returns a pooled Session.
func (b *Beaconless) session() *Session {
	if s, ok := b.sessions.Get().(*Session); ok {
		return s
	}
	//lint:ignore noalloc pool-miss path: one Session per worker, recycled via Put thereafter
	return b.NewSession()
}

// LocalizeObservation estimates a location from an observation vector
// o (length NumGroups). It runs on a pooled Session: steady state, zero
// heap allocations.
//
//lad:noalloc
func (b *Beaconless) LocalizeObservation(o []int) (geom.Point, error) {
	s := b.session()
	p, err := s.BindLocalize(o)
	b.sessions.Put(s)
	return p, err
}

// LocalizeMasked is LocalizeObservation with groups flagged in exclude
// removed from the likelihood, on a pooled Session. A nil exclude means
// no exclusions. (The LAD corrector trims tainted groups through
// Session.LocalizeFrom on its own Session.)
func (b *Beaconless) LocalizeMasked(o []int, exclude []bool) (geom.Point, error) {
	s := b.session()
	var p geom.Point
	err := s.Bind(o)
	if err == nil {
		p, err = s.LocalizeMasked(exclude)
	}
	b.sessions.Put(s)
	return p, err
}

// LogLikelihoodAt exposes the observation log-likelihood at an arbitrary
// location, on a pooled Session.
func (b *Beaconless) LogLikelihoodAt(o []int, loc geom.Point) float64 {
	s := b.session()
	v := math.Inf(-1)
	if s.Bind(o) == nil {
		v = s.LogLikelihoodAt(loc)
	}
	b.sessions.Put(s)
	return v
}

// Session is a reusable localization context: the likelihood's active
// set and probe scratch buffers, allocated once and recycled
// across observations. A Session is NOT safe for concurrent use; give
// each worker its own (core.TrainRun's workers do).
type Session struct {
	b  *Beaconless
	ll likelihood
	// probePts/probeVals are the pattern-search probe batch: one slot
	// per compass direction, reused across rounds and localizations.
	probePts  []geom.Point
	probeVals []float64
}

// NewSession returns a fresh Session for this scheme. The constructor is
// the only allocation site; every subsequent Bind/Localize on the
// Session reuses its buffers.
func (b *Beaconless) NewSession() *Session {
	s := &Session{b: b}
	s.probePts = make([]geom.Point, len(compassDirs))
	s.probeVals = make([]float64, len(compassDirs))
	return s
}

// Bind points the Session at an observation (length NumGroups), building
// the likelihood's active group set and the observation-weighted
// centroid in one pass. It returns ErrNoObservation for an empty or
// wrong-length observation. The Session keeps a reference to o until the
// next Bind; callers reusing the slice must finish localizing first.
func (s *Session) Bind(o []int) error {
	if !s.ll.bind(s.b.model, o, s.b.simEpoch >= 2) {
		return ErrNoObservation
	}
	return nil
}

// BindLocalize is Bind followed by Localize — the per-trial call of the
// training loop.
//
//lad:noalloc
func (s *Session) BindLocalize(o []int) (geom.Point, error) {
	if err := s.Bind(o); err != nil {
		return geom.Point{}, err
	}
	return s.Localize()
}

// Localize estimates the bound observation's location.
func (s *Session) Localize() (geom.Point, error) {
	return s.LocalizeMasked(nil)
}

// LocalizeMasked estimates the bound observation's location with groups
// flagged in exclude removed from the likelihood. A nil exclude means no
// exclusions.
func (s *Session) LocalizeMasked(exclude []bool) (geom.Point, error) {
	return s.LocalizeFrom(s.ll.centroid, 0, exclude)
}

// LocalizeFrom is LocalizeMasked with an explicit pattern-search start
// and maximum step — the warm-start entry point. Iterative refits of the
// same observation (the corrector's trim rounds) pass the previous
// round's estimate, which is already near the refit optimum, so the
// search converges in fewer probes than restarting from the centroid.
// A non-finite start or maxStep <= 0 select the defaults (the bound
// centroid, the scheme's MaxStep).
func (s *Session) LocalizeFrom(start geom.Point, maxStep float64, exclude []bool) (geom.Point, error) {
	if !s.ll.bound() || !s.ll.mask(exclude) {
		return geom.Point{}, ErrNoObservation
	}
	start, maxStep, minStep := s.searchBounds(start, maxStep)
	// Epoch 1 replays the scalar first-improvement compass search on
	// batched probe evaluations, so its fixpoints are bit-identical to a
	// point-at-a-time search over likelihood.at (probe_test.go keeps that
	// search as the oracle). Epoch ≥ 2 takes the full-poll search instead:
	// all eight probes of a round evaluated from a fixed center as two
	// atN4 passes, best improvement wins — equivalent only at the
	// distribution level, which is epoch 2's contract.
	if s.b.simEpoch >= 2 {
		return s.ll.patternSearchPoll8(s.probePts, s.probeVals, start, maxStep, minStep), nil
	}
	return s.ll.patternSearchBatch(s.probePts, s.probeVals, start, maxStep, minStep), nil
}

// searchBounds resolves LocalizeFrom's pattern-search start and step
// range for the bound observation: defaults for a non-finite start or
// maxStep <= 0, and the centroid fallback for a start outside the
// active-set envelope.
func (s *Session) searchBounds(start geom.Point, maxStep float64) (geom.Point, float64, float64) {
	if !start.IsFinite() {
		start = s.ll.centroid
	}
	if maxStep <= 0 {
		maxStep = s.b.MaxStep
		if maxStep <= 0 {
			// Half a deployment cell: the weighted centroid is never
			// farther off than that in practice.
			cfg := s.b.model.Config()
			maxStep = cfg.Field.Width() / float64(cfg.GroupsX) / 2
		}
	}
	// The active set built at Bind covers candidates near the centroid
	// (MaxZ plus one cell of margin — the envelope a search seeded at the
	// centroid stays inside). A warm start preserves that envelope only
	// if it begins within the search's own step budget of the centroid;
	// one that begins farther out (a caller-supplied distant point, or
	// drift accumulated over many trim rounds) would let the search
	// reach candidates whose nearby zero-count groups were pruned,
	// silently truncating the likelihood. Fall back to the centroid
	// there: the warm start is an optimization, coverage is correctness.
	if start.Dist(s.ll.centroid) > maxStep {
		start = s.ll.centroid
	}
	minStep := s.b.MinStep
	if minStep <= 0 {
		minStep = 0.25
		if s.b.simEpoch >= 2 {
			// Epoch 2 stops the halving cascade one round earlier: the
			// paper deployment's localization error is meters, so refining
			// past half a meter moves the estimate by far less than the
			// estimator's own spread. Saves a full 8-probe poll per trial;
			// the cross-epoch equivalence bands absorb the shift. An
			// explicit MinStep still applies to both epochs unchanged.
			minStep = 0.5
		}
	}
	return start, maxStep, minStep
}

// LogLikelihoodAt evaluates the bound observation's log-likelihood at an
// arbitrary location (over the full active set, no mask). It returns
// -Inf when no observation is bound.
func (s *Session) LogLikelihoodAt(p geom.Point) float64 {
	if !s.ll.bound() {
		return math.Inf(-1)
	}
	s.ll.mask(nil)
	return s.ll.at(p)
}

// likelihood evaluates the binomial log-likelihood of a fixed observation
// at candidate locations. Group-independent terms (log C(m, o_i)) are
// dropped — they do not affect the argmax — and only an active set of
// groups near the search region or with nonzero counts is scanned. The
// active set is found through the deployment model's spatial index; every
// buffer is reused across bind calls.
//
// Alongside the id-indexed active set, bind materializes the active
// groups as parallel structure-of-arrays buffers — coordinates plus the
// per-group likelihood weights o_i and m−o_i as floats — so probe
// evaluation streams over compact arrays instead of indexing through
// model.DeploymentPoint and counts[] per probe. The batched atN
// (probe.go) runs on those arrays; the scalar at keeps the id-indexed
// walk for single-point queries (LogLikelihoodAt) and as the equivalence
// reference. Both accumulate per-group terms in ascending group order
// with identical arithmetic, so their results are bit-identical.
type likelihood struct {
	model  *deploy.Model
	gt     *deploy.GTable
	counts []int
	m      int

	// centroid is the observation-weighted centroid of the deployment
	// points: both the pattern-search seed and the center of the active-
	// set margin disk (one computation, used for both).
	centroid geom.Point

	base   []int32 // active set of the bound observation, ascending
	act    []int32 // base, or actBuf after a mask
	actBuf []int32
	near   []int32 // spatial-index candidate scratch
	mark   []bool  // per-group "within margin" flags, reused

	// Structure-of-arrays view of the active set, parallel to base/act:
	// deployment-point coordinates and the probe weights o_i ("ow") and
	// m−o_i ("mw"), all precomputed at bind so the per-probe inner loop
	// does no int→float conversion and no pointer chasing. The act*
	// slices alias the base* ones when no mask is applied and the mask*
	// scratch buffers otherwise.
	baseXs, baseYs, baseOw, baseMw []float64
	actXs, actYs, actOw, actMw     []float64
	maskXs, maskYs, maskOw, maskMw []float64

	// Probe-engine live set (atN): the compaction of the active arrays,
	// cached with the coverage ball it was built for (anchor liveP0,
	// radius liveRad) so rounds probing inside the ball reuse it.
	// liveValid drops on every bind/mask.
	liveXs, liveYs, liveOw, liveMw []float64
	liveN                          int
	liveP0                         geom.Point
	liveRad                        float64
	liveValid                      bool

	// maxZ caches GTable.MaxZ() for the probe engine's skip bound.
	maxZ float64

	// logs is the raw log-companion table view the inner loops pass to
	// deploy.LogAt (GTable.LogEval2 is over the compiler's inlining
	// budget; LogAt is its body and inlines).
	logs deploy.LogTableView
}

// epoch2TailSigmas is the epoch-2 zero-count relevance radius: a
// zero-count group farther than R + epoch2TailSigmas·σ from every
// candidate contributes m·ln(1−g(z)) with g(z) ≲ 1e-3, under ~0.3 nats
// per group — negligible against the hundreds-of-nats spread of the
// likelihood surface, but a ~3× cut of the paper deployment's active
// set versus the exactness-preserving MaxZ = R + 6σ tail. The epoch-2
// equivalence tests bound the resulting estimate/threshold drift.
const epoch2TailSigmas = 3

// bind rebuilds the likelihood for an observation; false means the
// observation is unusable (wrong length or no neighbors at all).
// epoch2 selects the truncated epoch-2 active set (see epoch2TailSigmas).
func (ll *likelihood) bind(model *deploy.Model, o []int, epoch2 bool) bool {
	ll.counts = nil
	if len(o) != model.NumGroups() {
		return false
	}
	total := 0
	var cx, cy, cw float64
	pts := model.Points()
	for i, c := range o {
		total += c
		if c > 0 {
			dp := pts[i]
			w := float64(c)
			cx += dp.X * w
			cy += dp.Y * w
			cw += w
		}
	}
	if total == 0 {
		return false
	}
	ll.model = model
	ll.gt = model.GTable()
	ll.counts = o
	ll.m = model.GroupSize()
	ll.logs = ll.gt.LogTable()
	ll.maxZ = ll.gt.MaxZ()
	ll.centroid = geom.Pt(cx/cw, cy/cw)

	// Active set: groups with a nonzero count always matter (their
	// o_i·ln g term varies); zero-count groups matter only where g_i > 0,
	// i.e. within MaxZ of the candidate. The pattern search stays within
	// maxStep of the weighted centroid, so a margin of MaxZ + one cell
	// around that centroid covers every reachable candidate. The spatial
	// index yields the margin disk's candidates; each is re-tested with
	// the same predicate a full scan would use, so the resulting set is
	// exactly the one a scan over all n groups would build.
	// Epoch 2 truncates the zero-count relevance radius from MaxZ to
	// R + epoch2TailSigmas·σ; nonzero-count groups are kept either way.
	cfg := model.Config()
	zeroMax := ll.maxZ
	if epoch2 {
		r, sigma := ll.gt.Params()
		if t := r + epoch2TailSigmas*sigma; t < zeroMax {
			zeroMax = t
		}
	}
	margin := zeroMax + cfg.Field.Width()/float64(cfg.GroupsX)
	n := model.NumGroups()
	if cap(ll.mark) < n {
		ll.mark = make([]bool, n)
	} else {
		ll.mark = ll.mark[:n]
		clear(ll.mark)
	}
	ll.near = model.NearGroupsInto(ll.near[:0], ll.centroid, margin)
	for _, i := range ll.near {
		if model.DeploymentPoint(int(i)).Dist(ll.centroid) <= margin {
			ll.mark[i] = true
		}
	}
	ll.base = ll.base[:0]
	for i := 0; i < n; i++ {
		if o[i] > 0 || ll.mark[i] {
			ll.base = append(ll.base, int32(i))
		}
	}
	ll.materializeBase()
	ll.mask(nil)
	return true
}

// materializeBase rebuilds the structure-of-arrays view from the base
// active set: coordinates from the model's bulk point view, weights from
// the bound counts. Split out of bind so white-box tests that widen the
// active set can re-materialize.
func (ll *likelihood) materializeBase() {
	pts := ll.model.Points()
	mm := float64(ll.m)
	ll.baseXs, ll.baseYs = ll.baseXs[:0], ll.baseYs[:0]
	ll.baseOw, ll.baseMw = ll.baseOw[:0], ll.baseMw[:0]
	for _, i := range ll.base {
		p := pts[i]
		w := float64(ll.counts[i])
		ll.baseXs = append(ll.baseXs, p.X)
		ll.baseYs = append(ll.baseYs, p.Y)
		ll.baseOw = append(ll.baseOw, w)
		ll.baseMw = append(ll.baseMw, mm-w)
	}
}

// bound reports whether a usable observation is bound.
func (ll *likelihood) bound() bool { return ll.counts != nil }

// mask selects the working active set: base minus the excluded groups,
// filtering the id list and the structure-of-arrays view in one pass.
// false means nothing is left to fit.
func (ll *likelihood) mask(exclude []bool) bool {
	ll.liveValid = false // the probe engine's live set derives from act
	if exclude == nil {
		ll.act = ll.base
		ll.actXs, ll.actYs = ll.baseXs, ll.baseYs
		ll.actOw, ll.actMw = ll.baseOw, ll.baseMw
		return len(ll.act) > 0
	}
	ll.actBuf = ll.actBuf[:0]
	ll.maskXs, ll.maskYs = ll.maskXs[:0], ll.maskYs[:0]
	ll.maskOw, ll.maskMw = ll.maskOw[:0], ll.maskMw[:0]
	for k, i := range ll.base {
		if int(i) < len(exclude) && exclude[i] {
			continue
		}
		ll.actBuf = append(ll.actBuf, i)
		ll.maskXs = append(ll.maskXs, ll.baseXs[k])
		ll.maskYs = append(ll.maskYs, ll.baseYs[k])
		ll.maskOw = append(ll.maskOw, ll.baseOw[k])
		ll.maskMw = append(ll.maskMw, ll.baseMw[k])
	}
	ll.act = ll.actBuf
	ll.actXs, ll.actYs = ll.maskXs, ll.maskYs
	ll.actOw, ll.actMw = ll.maskOw, ll.maskMw
	return len(ll.act) > 0
}

// at is the pattern search's objective: the log-likelihood at p over the
// active set. The hot path is branch-light and transcendental-free — per
// group one squared distance, one log-table lookup (ln g and ln(1−g)
// together), and two multiply-adds. Groups beyond MaxZ contribute
// o·ln(eps) through the table's clamped tail.
//
//lad:noalloc
func (ll *likelihood) at(p geom.Point) float64 {
	var sum float64
	mm := float64(ll.m)
	logs, invStep, maxZ2, lnEps := ll.logs.Logs, ll.logs.InvStep, ll.logs.MaxZ2, ll.logs.LnEps
	last := len(logs) - 2
	for _, i := range ll.act {
		dp := ll.model.DeploymentPoint(int(i))
		dx, dy := p.X-dp.X, p.Y-dp.Y
		lg, l1g := deploy.LogAt(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
		o := float64(ll.counts[i])
		sum += o*lg + (mm-o)*l1g
	}
	return sum
}
