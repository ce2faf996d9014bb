package localize

import (
	"math"

	"repro/internal/deploy"
	"repro/internal/geom"
)

// This file is the structure-of-arrays probe engine of the beaconless
// MLE: pattern-search candidates evaluated over the likelihood's live
// set.
//
// The scalar objective (likelihood.at) walks the id-indexed active set
// once per candidate: index through the id list, load the deployment
// point, interpolate the log table, fold into one running sum. The
// engine instead runs on the bind-time structure-of-arrays copy of the
// active set, compacted to its live set (compactLive), so each probe
// streams compact coordinate/weight arrays with no pointer chasing.
// Four-probe batches (a round's axis probes, or its diagonals) take
// atN4, which evaluates all four in one group-major pass with
// register-resident accumulators: each group's coordinates and weights
// load once per batch, and the four table interpolations issue with no
// cross-probe dependency. Any other width walks the live set once per
// probe.
//
// Every per-element operation is the scalar path's arithmetic verbatim
// (the one table interpolation, deploy.LogAt) and each probe's terms
// accumulate in the same ascending-group order, so every lane is
// bit-identical to calling at per candidate — probe_test.go enforces
// this against at and against a point-at-a-time search oracle, and it
// is why the engine's epoch-1 thresholds match the scalar arithmetic
// exactly.

// compassDirs are the pattern-search probe directions, in the fixed
// order every search shares: axes first, then diagonals. The order is
// load-bearing — the search accepts the FIRST improving probe of a
// round, so reordering would change fixpoints.
var compassDirs = [8]geom.Vec{
	{DX: 1}, {DX: -1}, {DY: 1}, {DY: -1},
	{DX: 1, DY: 1}, {DX: 1, DY: -1}, {DX: -1, DY: 1}, {DX: -1, DY: -1},
}

// probeSkipSlack absorbs the floating-point error of the live-set skip
// bound: the true probe distances differ from the triangle-inequality
// estimate by a handful of ulps, which 1e-6 m dwarfs by ~9 orders of
// magnitude while being far below any meaningful geometry.
const probeSkipSlack = 1e-6

// atN evaluates the log-likelihood at every candidate in pts, writing
// the results to the parallel out slice (len(out) must equal len(pts)).
// Each candidate's result is bit-identical to at(candidate). The live
// set must cover every candidate (ensureLive or compactLive).
//
//lad:noalloc
func (ll *likelihood) atN(pts []geom.Point, out []float64) {
	if len(out) != len(pts) {
		panic("localize: atN length mismatch")
	}
	if len(pts) == 4 {
		ll.atN4((*[4]geom.Point)(pts), (*[4]float64)(out))
		return
	}
	n := ll.liveN
	xs, ys := ll.liveXs[:n], ll.liveYs[:n]
	ow, mw := ll.liveOw[:n], ll.liveMw[:n]
	logs, invStep, maxZ2, lnEps := ll.logs.Logs, ll.logs.InvStep, ll.logs.MaxZ2, ll.logs.LnEps
	last := len(logs) - 2
	for j, p := range pts {
		var sum float64
		for g, x := range xs {
			dx, dy := p.X-x, p.Y-ys[g]
			lgv, l1gv := deploy.LogAt(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			sum += ow[g]*lgv + mw[g]*l1gv
		}
		out[j] = sum
	}
}

// atN4 is the four-probe kernel: probe coordinates and the four
// accumulators live in registers for the whole pass, so each (group,
// probe) element costs its arithmetic plus loads only — no accumulator
// store/reload per element. Arithmetic and accumulation order are the
// scalar walk's exactly.
//
//lad:noalloc
func (ll *likelihood) atN4(pts *[4]geom.Point, out *[4]float64) {
	n := ll.liveN
	xs, ys := ll.liveXs[:n], ll.liveYs[:n]
	ow, mw := ll.liveOw[:n], ll.liveMw[:n]
	logs, invStep, maxZ2, lnEps := ll.logs.Logs, ll.logs.InvStep, ll.logs.MaxZ2, ll.logs.LnEps
	last := len(logs) - 2
	if last < 0 {
		return // unreachable: tables carry ≥ 2 samples
	}
	p0x, p0y := pts[0].X, pts[0].Y
	p1x, p1y := pts[1].X, pts[1].Y
	p2x, p2y := pts[2].X, pts[2].Y
	p3x, p3y := pts[3].X, pts[3].Y
	var a0, a1, a2, a3 float64
	for g, x := range xs {
		y, owg, mwg := ys[g], ow[g], mw[g]
		{
			dx, dy := p0x-x, p0y-y
			lgv, l1gv := deploy.LogAt(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a0 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p1x-x, p1y-y
			lgv, l1gv := deploy.LogAt(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a1 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p2x-x, p2y-y
			lgv, l1gv := deploy.LogAt(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a2 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p3x-x, p3y-y
			lgv, l1gv := deploy.LogAt(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a3 += owg*lgv + mwg*l1gv
		}
	}
	out[0], out[1], out[2], out[3] = a0, a1, a2, a3
}

// compactLive rebuilds the live set for probes guaranteed to stay within
// radius of anchor, and records the coverage ball for reuse.
//
// A zero-count group farther than MaxZ from every probe contributes
// o·ln g + (m−o)·ln(1−g) = 0·lnEps + (m−0)·0 = exactly +0.0, and
// x + (+0.0) == x bit-for-bit for every partial sum this likelihood
// produces (terms are +0.0 or strictly negative, so no −0.0 partial
// sums arise) — dropping such groups leaves every probe's result
// bit-identical while cutting the far third of the active margin disk.
// The bound: every probe lies within radius of the anchor, so a group at
// least MaxZ + radius (+ slack) from the anchor is at least MaxZ from
// every probe. Relative order of the surviving groups is preserved,
// which keeps the accumulation order — and therefore the rounding — of
// the scalar walk.
func (ll *likelihood) compactLive(anchor geom.Point, radius float64) {
	xs, ys, ow, mw := ll.actXs, ll.actYs, ll.actOw, ll.actMw
	nAct := len(xs)
	if cap(ll.liveXs) < nAct {
		ll.liveXs = make([]float64, nAct)
		ll.liveYs = make([]float64, nAct)
		ll.liveOw = make([]float64, nAct)
		ll.liveMw = make([]float64, nAct)
	}
	thr := ll.maxZ + radius + probeSkipSlack
	thr2 := thr * thr
	live := 0
	liveXs, liveYs := ll.liveXs[:nAct], ll.liveYs[:nAct]
	liveOw, liveMw := ll.liveOw[:nAct], ll.liveMw[:nAct]
	ys = ys[:nAct]
	ow = ow[:nAct]
	mw = mw[:nAct]
	for g, x := range xs {
		if ow[g] == 0 {
			dx, dy := x-anchor.X, ys[g]-anchor.Y
			if dx*dx+dy*dy >= thr2 {
				continue
			}
		}
		liveXs[live], liveYs[live] = x, ys[g]
		liveOw[live], liveMw[live] = ow[g], mw[g]
		live++
	}
	ll.liveN = live
	ll.liveP0 = anchor
	ll.liveRad = radius
	ll.liveValid = true
}

// probeLiveInflate over-provisions the coverage ball ensureLive compacts
// for, so a few accepted moves and the next step halvings reuse one
// compaction instead of recompacting per round; probeLiveTight caps how
// stale that over-provisioning may get — once the needed radius shrinks
// to where the cached ball is more than probeLiveTight times it, a fresh
// tighter compaction prunes the groups the smaller rounds can no longer
// reach. Larger values keep more zero-contribution groups live; smaller
// ones recompact more often.
const (
	probeLiveInflate = 3
	probeLiveTight   = 3 * probeLiveInflate
)

// ensureLive guarantees the cached live set covers ball(center, need):
// every probe a round centered at center (step ≤ need/(1+√2)) can touch.
func (ll *likelihood) ensureLive(center geom.Point, need float64) {
	if ll.liveValid && center.Dist(ll.liveP0)+need <= ll.liveRad && ll.liveRad <= probeLiveTight*need {
		return
	}
	ll.compactLive(center, need*probeLiveInflate)
}

// axisChunk is the probe-batch boundary inside a round: directions
// 0..3 (the axes) batch together, the diagonals batch together.
// Measured on the paper deployment, accepted moves land on an axis
// >99% of the time — the diagonal probes almost always run only to
// confirm a round is over, from the round's final center — so cutting
// at the axes keeps the discarded-probe overhead of the re-batch rule
// (below) to ~1.5 probes per accepted move.
const axisChunk = 4

// patternSearchBatch is the epoch-1 compass search over the batched
// objective: probe chunks are evaluated through one atN call each
// instead of one call per candidate. It replays the scalar
// point-at-a-time search's acceptance rule exactly
// — candidates are considered in compassDirs order and the FIRST
// improvement moves the center — so when a probe improves, any probes
// of the same chunk that were computed from the now-stale center are
// discarded and the remaining directions re-batched from the new best:
// exactly the candidates the scalar search would have evaluated, in the
// same order. Since atN(p) ≡ at(p) bit-for-bit, the returned fixpoint
// is bit-identical to the scalar search's (probe_test.go holds that
// search as the oracle).
//
// Rounds are cut at axisChunk, which keeps the discarded-probe overhead
// small without touching the acceptance sequence. The start is
// evaluated on its own, on the live set, before the first round. Every
// chunk first makes the live set cover its center's probes: an accepted
// move shifts the center mid-round, and coverage is what keeps the
// live-set evaluation exact.
//
// pts and vals are caller-owned scratch of at least len(compassDirs)
// slots (Sessions hold them), so steady state allocates nothing.
//
//lad:noalloc
func (ll *likelihood) patternSearchBatch(pts []geom.Point, vals []float64, start geom.Point, maxStep, minStep float64) geom.Point {
	best := start
	step := maxStep
	if step < minStep {
		return best
	}
	nd := len(compassDirs)
	ll.ensureLive(best, (1+math.Sqrt2)*step)

	// The start's own value, then rounds of chunked compass probes.
	pts[0] = start
	ll.atN(pts[:1], vals[:1])
	bestV := vals[0]
	k := 0
	improved := false

	for {
		// Finish the current round from direction k.
		for k < nd {
			hi := nd
			if k < axisChunk {
				hi = axisChunk
			}
			m := 0
			for j := k; j < hi; j++ {
				pts[m] = best.Add(compassDirs[j].Scale(step))
				m++
			}
			ll.ensureLive(best, (1+math.Sqrt2)*step)
			ll.atN(pts[:m], vals[:m])
			adv := m
			for j := 0; j < m; j++ {
				if vals[j] > bestV {
					best, bestV = pts[j], vals[j]
					improved = true
					adv = j + 1
					break
				}
			}
			k += adv
		}
		if !improved {
			step /= 2
			if step < minStep {
				return best
			}
		}
		improved = false
		k = 0
	}
}

// patternSearchPoll8 is the epoch-2 pattern search: a FULL POLL per
// round — all eight compass probes computed from the round's fixed
// center and evaluated as two atN4 passes (axes, then diagonals) —
// accepting the best improving probe (ties break toward the lower
// compassDirs index). It deliberately abandons the scalar search's
// first-improvement replay: no probe is ever computed from a mid-round
// center, so there are no discarded evaluations and no re-batching. The
// accepted move sequence therefore differs from patternSearchBatch's —
// fixpoints agree only at the distribution level (a few centimeters on
// the paper deployment, far inside the localization error the detector
// thresholds absorb), which is simulation epoch 2's contract. Epoch 1
// keeps the replaying search; this path is reached only via
// Beaconless.SetSimEpoch(2+).
//
// pts and vals are the Session's probe scratch (≥ len(compassDirs)
// slots).
//
//lad:noalloc
func (ll *likelihood) patternSearchPoll8(pts []geom.Point, vals []float64, start geom.Point, maxStep, minStep float64) geom.Point {
	best := start
	step := maxStep
	if step < minStep {
		return best
	}
	ll.ensureLive(best, (1+math.Sqrt2)*step)
	pts[0] = start
	ll.atN(pts[:1], vals[:1])
	bestV := vals[0]

	for {
		for j, d := range compassDirs {
			pts[j] = best.Add(d.Scale(step))
		}
		ll.atN4((*[4]geom.Point)(pts[:4]), (*[4]float64)(vals[:4]))
		ll.atN4((*[4]geom.Point)(pts[4:8]), (*[4]float64)(vals[4:8]))
		bestJ := -1
		for j, v := range vals[:len(compassDirs)] {
			if v > bestV {
				bestV = v
				bestJ = j
			}
		}
		if bestJ >= 0 {
			// Best-of-eight moves are greedier than the scalar search's
			// first-improvement ones; measured on the paper deployment the
			// full poll converges in fewer rounds than an axis-first
			// half-poll despite evaluating more probes per round.
			best = pts[bestJ]
		} else {
			step /= 2
			if step < minStep {
				return best
			}
		}
		ll.ensureLive(best, (1+math.Sqrt2)*step)
	}
}
