package localize

import (
	"math"

	"repro/internal/geom"
)

// This file is the structure-of-arrays probe engine of the beaconless
// MLE: batched evaluation of pattern-search candidates over the
// likelihood's active set.
//
// The scalar objective (likelihood.at) walks the active set once per
// candidate, and each group's contribution is a dependent chain — index
// through the id list, load the deployment point, interpolate the log
// table, fold into one running sum. A pattern-search round probes up to
// eight compass candidates against the SAME active set, so the engine
// (atN) evaluates the whole probe batch in one group-major pass over the
// bind-time SoA arrays: per group, the distance step, the table step,
// and the weighted-sum step run for every probe of the batch before
// moving on. That shape pays the group's table neighborhood once per
// batch instead of once per probe, runs on compact coordinate/weight
// arrays instead of pointer-chasing through model.DeploymentPoint and
// counts[], and gives each probe an independent accumulator so the sum
// updates pipeline instead of serializing on one running total.
//
// Before the pass, the batch is compacted to its live set: zero-count
// groups provably beyond MaxZ of every probe contribute exactly +0.0
// and are dropped (see atN for the proof sketch). The compaction is
// cached across batches whose probes stay inside the previous coverage
// ball, so a halving cascade at a converged center compacts once.
//
// Every per-element operation is the scalar path's arithmetic verbatim
// and each probe's terms accumulate in the same ascending-group order,
// so atN is bit-identical to calling at per candidate — probe_test.go
// enforces this against at and against a point-at-a-time search oracle,
// and it is why the engine's epoch-1 thresholds match the scalar
// arithmetic exactly.

// compassDirs are the pattern-search probe directions, in the fixed
// order every search shares: axes first, then diagonals. The order is
// load-bearing — the search accepts the FIRST improving probe of a
// round, so reordering would change fixpoints.
var compassDirs = [8]geom.Vec{
	{DX: 1}, {DX: -1}, {DY: 1}, {DY: -1},
	{DX: 1, DY: 1}, {DX: 1, DY: -1}, {DX: -1, DY: 1}, {DX: -1, DY: -1},
}

// probeBatchMax caps one probe batch: a full pattern-search round — the
// center plus every compass direction. Larger atN inputs are processed
// in chunks of this size.
const probeBatchMax = len(compassDirs) + 1

// probeSkipSlack absorbs the floating-point error of the live-set skip
// bound: the true probe distances differ from the triangle-inequality
// estimate by a handful of ulps, which 1e-6 m dwarfs by ~9 orders of
// magnitude while being far below any meaningful geometry.
const probeSkipSlack = 1e-6

// atN evaluates the log-likelihood at every candidate in pts, writing
// the results to the parallel out slice (len(out) must equal len(pts)).
// Each candidate's result is bit-identical to at(candidate).
//
//lad:noalloc
func (ll *likelihood) atN(pts []geom.Point, out []float64) {
	if len(out) != len(pts) {
		panic("localize: atN length mismatch")
	}
	for len(pts) > probeBatchMax {
		ll.atN(pts[:probeBatchMax], out[:probeBatchMax])
		pts, out = pts[probeBatchMax:], out[probeBatchMax:]
	}
	np := len(pts)
	if np == 0 {
		return
	}

	// Live-set compaction. A zero-count group farther than MaxZ from
	// every probe of the batch contributes o·ln g + (m−o)·ln(1−g) =
	// 0·lnEps + (m−0)·0 = exactly +0.0, and x + (+0.0) == x bit-for-bit
	// for every partial sum this likelihood produces (terms are +0.0 or
	// strictly negative, so no −0.0 partial sums arise) — dropping such
	// groups leaves every probe's result bit-identical while cutting the
	// batch by the far third of the active margin disk. The bound: every
	// probe lies within `radius` of the anchor, so a group at least
	// MaxZ + radius (+ slack) from the anchor is at least MaxZ from
	// every probe. Relative order of the surviving groups is preserved,
	// which keeps the accumulation order — and therefore the rounding —
	// of the scalar walk.
	//
	// The compaction is reused while probes stay inside the cached
	// coverage ball: a cached live set that covered ball(p0, r) stays
	// valid for any probe within r of p0, so the halving cascade of a
	// converged search center compacts once, not once per round.
	reuse := ll.liveValid
	if reuse {
		r2 := ll.liveRad * ll.liveRad
		for j := 0; j < np; j++ {
			if pts[j].Dist2(ll.liveP0) > r2 {
				reuse = false
				break
			}
		}
	}
	if !reuse {
		p0 := pts[0]
		var maxR2 float64
		for j := 1; j < np; j++ {
			if r2 := pts[j].Dist2(p0); r2 > maxR2 {
				maxR2 = r2
			}
		}
		ll.compactLive(p0, math.Sqrt(maxR2))
	}

	n := ll.liveN
	out = out[:np]
	for j := range out {
		out[j] = 0
	}
	if n == 0 {
		return
	}

	// The pattern search batches in chunks of four (the axis probes, the
	// diagonal probes), so the four-wide kernel with register-resident
	// accumulators carries almost all the traffic; odd widths (the round
	// center, post-acceptance remainders, external callers) take the
	// generic slice-accumulator pass.
	if np == 4 {
		ll.atN4((*[4]geom.Point)(pts), (*[4]float64)(out))
		return
	}

	xs, ys := ll.liveXs[:n], ll.liveYs[:n]
	ow, mw := ll.liveOw[:n], ll.liveMw[:n]

	// Generic width: three passes over a flat probe×group matrix —
	// distance pass, one deploy.LogTableView.LogEvalN call for the whole
	// batch (the batched table API; per element it is LogEval2's
	// arithmetic verbatim), then a group-major weighted-sum pass with
	// one independent accumulator slot per probe, accumulating each
	// probe's terms in ascending group order.
	need := np * n
	if cap(ll.z2Buf) < need {
		ll.z2Buf = make([]float64, need)
		ll.lgBuf = make([]float64, need)
		ll.l1gBuf = make([]float64, need)
	}
	z2 := ll.z2Buf[:need]
	for j := 0; j < np; j++ {
		row := z2[j*n : j*n+n]
		px, py := pts[j].X, pts[j].Y
		for g, x := range xs {
			dx, dy := px-x, py-ys[g]
			row[g] = dx*dx + dy*dy
		}
	}
	lg, l1g := ll.lgBuf[:need], ll.l1gBuf[:need]
	ll.logs.LogEvalN(z2, lg, l1g)
	for g := 0; g < n; g++ {
		owg, mwg := ow[g], mw[g]
		idx := g
		for j := range out {
			out[j] += owg*lg[idx] + mwg*l1g[idx]
			idx += n
		}
	}
}

// logLookup is the log-companion table interpolation of the four-probe
// kernel: LogEval2's arithmetic verbatim (same operation order, so
// results are bit-identical to deploy.GTable.LogEval2 and LogEvalN —
// deploy's tests pin LogEvalN to LogEval2 and this package's pin atN to
// at), with the clamp phrased unsigned — the same condition, k is never
// negative — so the compiler proves 0 ≤ k ≤ last and drops the bounds
// checks on the two table loads. Small enough to inline.
func logLookup(logs [][2]float64, invStep, maxZ2, lnEps float64, last int, z2 float64) (lgv, l1gv float64) {
	if z2 >= maxZ2 {
		return lnEps, 0
	}
	u := z2 * invStep
	k := int(u)
	if uint(k) > uint(last) { // float rounding at the right edge
		k = last
	}
	f := u - float64(k)
	lo, hi := logs[k], logs[k+1]
	return lo[0] + (hi[0]-lo[0])*f, lo[1] + (hi[1]-lo[1])*f
}

// atN4 is the four-probe kernel: probe coordinates and the four
// accumulators live in registers for the whole pass, so each (group,
// probe) element costs its arithmetic plus loads only — no accumulator
// store/reload per element. Arithmetic and accumulation order are the
// scalar walk's exactly; see atN.
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
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a0 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p1x-x, p1y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a1 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p2x-x, p2y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a2 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p3x-x, p3y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a3 += owg*lgv + mwg*l1gv
		}
	}
	out[0], out[1], out[2], out[3] = a0, a1, a2, a3
}

// atN8 is the epoch-2 kernel: all eight compass probes of a full-poll
// round evaluated in ONE group-major pass with eight independent
// register accumulators, so each live group's coordinates and weights
// are loaded once per round instead of once per four-wide chunk, and
// the eight table interpolations per group issue back to back with no
// cross-probe dependency. Arithmetic per element is still the scalar
// walk's (logLookup is LogEval2's arithmetic verbatim) and terms
// accumulate in ascending group order per probe, so each lane equals
// at(pts[lane]) bit-for-bit — the epoch-2 freedom spent here is the
// SEARCH restructure (full poll from a fixed center), not the
// per-candidate arithmetic. The caller must have compacted the live set
// for a ball covering all eight probes (patternSearchPoll8 does).
//
//lad:noalloc
func (ll *likelihood) atN8(pts *[8]geom.Point, out *[8]float64) {
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
	p4x, p4y := pts[4].X, pts[4].Y
	p5x, p5y := pts[5].X, pts[5].Y
	p6x, p6y := pts[6].X, pts[6].Y
	p7x, p7y := pts[7].X, pts[7].Y
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for g, x := range xs {
		y, owg, mwg := ys[g], ow[g], mw[g]
		{
			dx, dy := p0x-x, p0y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a0 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p1x-x, p1y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a1 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p2x-x, p2y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a2 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p3x-x, p3y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a3 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p4x-x, p4y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a4 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p5x-x, p5y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a5 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p6x-x, p6y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a6 += owg*lgv + mwg*l1gv
		}
		{
			dx, dy := p7x-x, p7y-y
			lgv, l1gv := logLookup(logs, invStep, maxZ2, lnEps, last, dx*dx+dy*dy)
			a7 += owg*lgv + mwg*l1gv
		}
	}
	out[0], out[1], out[2], out[3] = a0, a1, a2, a3
	out[4], out[5], out[6], out[7] = a4, a5, a6, a7
}

// compactLive rebuilds the live set for probes guaranteed to stay within
// radius of anchor, and records the coverage ball for reuse.
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
// Two batching choices keep the discarded-probe overhead small without
// touching the acceptance sequence: the start's own evaluation rides in
// the first chunk (the first round's candidates depend only on the
// start, not on its value), and rounds are cut at axisChunk.
//
// pts and vals are caller-owned scratch of at least probeBatchMax slots
// (Sessions hold them), so steady state allocates nothing.
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
		ll.ensureLive(best, (1+math.Sqrt2)*step)
	}
}

// patternSearchPoll8 is the epoch-2 pattern search: a FULL POLL per
// round — all eight compass probes computed from the round's fixed
// center and evaluated in one fused atN8 pass — accepting the best
// improving probe (ties break toward the lower compassDirs index). It
// deliberately abandons the scalar search's first-improvement replay:
// no probe is ever computed from a mid-round center, so there are no
// discarded evaluations and no re-batching, and the whole round is one
// kernel call over the live set. The accepted move sequence therefore
// differs from patternSearchBatch's — fixpoints agree only
// at the distribution level (a few centimeters on the paper deployment,
// far inside the localization error the detector thresholds absorb),
// which is simulation epoch 2's contract. Epoch 1 keeps the replaying
// search; this path is reached only via Beaconless.SetSimEpoch(2+).
//
// pts and vals are the Session's probe scratch (≥ probeBatchMax slots).
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

	probes := (*[8]geom.Point)(pts[:8])
	outs := (*[8]float64)(vals[:8])
	for {
		for j, d := range compassDirs {
			probes[j] = best.Add(d.Scale(step))
		}
		ll.atN8(probes, outs)
		bestJ := -1
		for j, v := range outs {
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
			best = probes[bestJ]
		} else {
			step /= 2
			if step < minStep {
				return best
			}
		}
		ll.ensureLive(best, (1+math.Sqrt2)*step)
	}
}
