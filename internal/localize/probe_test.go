package localize

import (
	"math"
	"sync"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/rng"
)

// TestAtNBitIdenticalToAt is the probe engine's core property: for any
// bound observation and any probe batch its live set covers, atN must
// produce bit-for-bit the values the scalar at returns point by point —
// across grid, hex, and random layouts, interior and edge-of-field
// victims, masked and unmasked active sets, and every batch size the
// pattern searches use (the four-wide kernel and the per-probe walk).
func TestAtNBitIdenticalToAt(t *testing.T) {
	for name, pair := range layoutModels(t) {
		model := pair[0]
		b := NewBeaconlessModel(model)
		s := b.NewSession()
		r := rng.New(131)
		pts := make([]geom.Point, len(compassDirs)+3)
		got := make([]float64, len(pts))
		for i := 0; i < 16; i++ {
			o := sampleObs(model, r, i)
			if err := s.Bind(o); err != nil {
				t.Fatalf("%s trial %d: bind: %v", name, i, err)
			}
			if i%3 == 1 { // every third trial fits under a mask
				exclude := make([]bool, model.NumGroups())
				for j := range exclude {
					exclude[j] = j%5 == i%5
				}
				if !s.ll.mask(exclude) {
					t.Fatalf("%s trial %d: mask emptied the active set", name, i)
				}
			}
			for np := 1; np <= len(pts); np++ {
				for j := 0; j < np; j++ {
					pts[j] = s.ll.centroid.Add(geom.V(r.Uniform(-80, 80), r.Uniform(-80, 80)))
				}
				s.ll.compactLive(s.ll.centroid, 80*math.Sqrt2) // covers every probe
				s.ll.atN(pts[:np], got[:np])
				for j := 0; j < np; j++ {
					if want := s.ll.at(pts[j]); got[j] != want {
						t.Fatalf("%s trial %d batch %d probe %d at %v: atN %v != at %v",
							name, i, np, j, pts[j], got[j], want)
					}
				}
			}
		}
	}
}

// patternSearch is the scalar compass search, one candidate evaluation
// at a time: candidates are probed in compassDirs order and every
// improvement moves the center immediately, so later probes of the same
// round start from the updated best. It is the oracle the epoch-1
// production search (patternSearchBatch) replays on batched
// evaluations.
func patternSearch(f func(geom.Point) float64, start geom.Point, maxStep, minStep float64) geom.Point {
	best := start
	bestV := f(best)
	step := maxStep
	for step >= minStep {
		improved := false
		for _, d := range compassDirs {
			cand := best.Add(d.Scale(step))
			if v := f(cand); v > bestV {
				best, bestV = cand, v
				improved = true
			}
		}
		if !improved {
			step /= 2
		}
	}
	return best
}

// scalarLocalizeFrom is the point-at-a-time oracle of an epoch-1
// Session.LocalizeFrom: the same mask and search bounds, then
// patternSearch over f (likelihood.at for the bit-identity oracle).
func scalarLocalizeFrom(s *Session, f func(geom.Point) float64, start geom.Point, maxStep float64, exclude []bool) (geom.Point, error) {
	if !s.ll.bound() || !s.ll.mask(exclude) {
		return geom.Point{}, ErrNoObservation
	}
	start, maxStep, minStep := s.searchBounds(start, maxStep)
	return patternSearch(f, start, maxStep, minStep), nil
}

// TestProbeBatchLocalizeBitIdenticalToScalar asserts the end-to-end
// property the training pipeline depends on: localization through the
// probe engine — plain, masked, and warm-started — returns fixpoints
// bit-identical to the scalar point-at-a-time search over likelihood.at,
// so thresholds and verdicts cannot move.
func TestProbeBatchLocalizeBitIdenticalToScalar(t *testing.T) {
	for name, pair := range layoutModels(t) {
		model := pair[0]
		sb := NewBeaconlessModel(model).NewSession()
		ss := NewBeaconlessModel(pair[1]).NewSession()
		r := rng.New(132)
		for i := 0; i < 24; i++ {
			o := sampleObs(model, r, i)
			pb, errB := sb.BindLocalize(o)
			errS := ss.Bind(o)
			var ps geom.Point
			if errS == nil {
				ps, errS = scalarLocalizeFrom(ss, ss.ll.at, ss.ll.centroid, 0, nil)
			}
			if (errB == nil) != (errS == nil) {
				t.Fatalf("%s trial %d: err %v vs %v", name, i, errB, errS)
			}
			if pb != ps {
				t.Fatalf("%s trial %d: batch %v != scalar %v", name, i, pb, ps)
			}

			exclude := make([]bool, model.NumGroups())
			for j := range exclude {
				exclude[j] = j%6 == i%6
			}
			pb, errB = sb.LocalizeMasked(exclude)
			ps, errS = scalarLocalizeFrom(ss, ss.ll.at, ss.ll.centroid, 0, exclude)
			if (errB == nil) != (errS == nil) || pb != ps {
				t.Fatalf("%s trial %d masked: (%v,%v) != (%v,%v)", name, i, pb, errB, ps, errS)
			}

			// Warm start from the masked estimate — the corrector's trim-
			// round shape.
			pb, errB = sb.LocalizeFrom(pb, 0, exclude)
			ps, errS = scalarLocalizeFrom(ss, ss.ll.at, ps, 0, exclude)
			if (errB == nil) != (errS == nil) || pb != ps {
				t.Fatalf("%s trial %d warm: (%v,%v) != (%v,%v)", name, i, pb, errB, ps, errS)
			}
		}
	}
}

// TestProbeBatchZeroAllocs pins the engine's allocation discipline: after
// warmup, batched localization — including masked refits — performs no
// heap allocations on an explicitly held Session.
func TestProbeBatchZeroAllocs(t *testing.T) {
	model := deploy.MustNew(deploy.PaperConfig())
	b := NewBeaconlessModel(model)
	s := b.NewSession()
	r := rng.New(133)
	o := sampleObs(model, r, 0)
	exclude := make([]bool, model.NumGroups())
	for j := range exclude {
		exclude[j] = j%9 == 0
	}
	if _, err := s.BindLocalize(o); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LocalizeMasked(exclude); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.BindLocalize(o); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LocalizeMasked(exclude); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batched BindLocalize+LocalizeMasked allocs/op = %v, want 0", allocs)
	}
}

// TestProbeBatchConcurrent hammers batched localization from many
// goroutines under the race detector; every result must match the
// sequentially computed scalar-search oracle bit-for-bit.
func TestProbeBatchConcurrent(t *testing.T) {
	model := deploy.MustNew(deploy.PaperConfig())
	batch := NewBeaconlessModel(model)
	scalar := batch.NewSession()
	r := rng.New(134)
	const n = 24
	obs := make([][]int, n)
	want := make([]geom.Point, n)
	for i := range obs {
		obs[i] = sampleObs(model, r, i)
		if err := scalar.Bind(obs[i]); err != nil {
			t.Fatal(err)
		}
		p, err := scalarLocalizeFrom(scalar, scalar.ll.at, scalar.ll.centroid, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := batch.NewSession()
			for i := 0; i < n; i++ {
				p, err := s.BindLocalize(obs[(i+w)%n])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if p != want[(i+w)%n] {
					t.Errorf("worker %d trial %d: batch diverged from scalar", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
