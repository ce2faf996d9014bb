package localize

import (
	"math"
	"sync"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/rng"
)

// layoutModels builds the paper deployment per layout, twice: the two
// models of a pair are constructed independently from the same config,
// so a test comparing across them also catches any state a localization
// could pick up from one particular model instance.
func layoutModels(t *testing.T) map[string][2]*deploy.Model {
	t.Helper()
	out := map[string][2]*deploy.Model{}
	for name, layout := range map[string]deploy.Layout{
		"grid": deploy.LayoutGrid, "hex": deploy.LayoutHex, "random": deploy.LayoutRandom,
	} {
		cfg := deploy.PaperConfig()
		cfg.Layout = layout
		cfg.RandomSeed = 5
		out[name] = [2]*deploy.Model{deploy.MustNew(cfg), deploy.MustNew(cfg)}
	}
	return out
}

// sampleObs draws a benign observation at an interesting location: the
// mix includes interior, edge-of-field, and corner victims.
func sampleObs(m *deploy.Model, r *rng.Rand, i int) []int {
	f := m.Field()
	var loc geom.Point
	switch i % 4 {
	case 0, 1: // interior
		for {
			_, p := m.SampleLocation(r)
			if f.Contains(p) {
				loc = p
				break
			}
		}
	case 2: // on a field edge
		loc = geom.Pt(f.Min.X, r.Uniform(f.Min.Y, f.Max.Y))
	default: // near a corner
		loc = geom.Pt(f.Max.X-1, f.Max.Y-1)
	}
	return m.SampleObservation(loc, i%m.NumGroups(), r)
}

// TestActiveSetMatchesFullGroupSet checks the active-set pruning against
// the no-pruning ground truth: a likelihood forced to keep every group
// active must produce the same surface values and the same maximizer.
func TestActiveSetMatchesFullGroupSet(t *testing.T) {
	for name, pair := range layoutModels(t) {
		model := pair[0]
		b := NewBeaconlessModel(model)
		r := rng.New(33)
		for i := 0; i < 12; i++ {
			o := sampleObs(model, r, i)

			pruned := b.NewSession()
			if err := pruned.Bind(o); err != nil {
				t.Fatalf("%s: bind: %v", name, err)
			}
			full := b.NewSession()
			if err := full.Bind(o); err != nil {
				t.Fatalf("%s: bind: %v", name, err)
			}
			// White-box: widen the full session's active set to all groups,
			// then rebuild the SoA view and reset the mask so both the
			// scalar walk and the probe engine see the widened set.
			full.ll.base = full.ll.base[:0]
			for g := 0; g < model.NumGroups(); g++ {
				full.ll.base = append(full.ll.base, int32(g))
			}
			full.ll.materializeBase()
			full.ll.mask(nil)

			// Zero-count groups outside the active margin must contribute
			// exactly 0 at every reachable candidate, so surfaces agree.
			for j := 0; j < 50; j++ {
				p := pruned.ll.centroid.Add(geom.V(r.Uniform(-60, 60), r.Uniform(-60, 60)))
				if v1, v2 := pruned.ll.at(p), full.ll.at(p); v1 != v2 {
					t.Fatalf("%s trial %d: at(%v): pruned %v != full %v", name, i, p, v1, v2)
				}
			}
			p1, err1 := pruned.Localize()
			p2, err2 := full.Localize()
			if err1 != nil || err2 != nil || p1 != p2 {
				t.Fatalf("%s trial %d: pruned (%v,%v) != full (%v,%v)", name, i, p1, err1, p2, err2)
			}
		}
	}
}

// TestSessionMatchesWrappers pins that the pooled convenience wrappers
// and an explicitly held Session produce identical results.
func TestSessionMatchesWrappers(t *testing.T) {
	model := deploy.MustNew(deploy.PaperConfig())
	b := NewBeaconlessModel(model)
	s := b.NewSession()
	r := rng.New(44)
	for i := 0; i < 10; i++ {
		o := sampleObs(model, r, i)
		want, errW := b.LocalizeObservation(o)
		got, errG := s.BindLocalize(o)
		if errW != errG || want != got {
			t.Fatalf("trial %d: wrapper (%v,%v) != session (%v,%v)", i, want, errW, got, errG)
		}
		// Re-binding the same session with a different observation must
		// not leak state from the previous one.
		o2 := sampleObs(model, r, i+100)
		want2, _ := b.LocalizeObservation(o2)
		got2, _ := s.BindLocalize(o2)
		if want2 != got2 {
			t.Fatalf("trial %d: session reuse diverged: %v != %v", i, want2, got2)
		}
	}
}

// TestLocalizeFromWarmStart verifies the warm-start entry point: started
// at the cold-start optimum, the search must stay there (within the
// pattern search's resolution), and a masked warm-started refit must
// agree with the masked cold-start refit's neighborhood.
func TestLocalizeFromWarmStart(t *testing.T) {
	model := deploy.MustNew(deploy.PaperConfig())
	b := NewBeaconlessModel(model)
	r := rng.New(55)
	s := b.NewSession()
	for i := 0; i < 8; i++ {
		o := sampleObs(model, r, i)
		cold, err := s.BindLocalize(o)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := s.LocalizeFrom(cold, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Dist(cold) > 1.0 {
			t.Errorf("trial %d: warm start from the optimum wandered %v m", i, warm.Dist(cold))
		}
		// Non-finite start falls back to the centroid (= the cold path).
		fallback, err := s.LocalizeFrom(geom.Pt(math.NaN(), 0), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fallback != cold {
			t.Errorf("trial %d: NaN start should use the centroid: %v != %v", i, fallback, cold)
		}
		// A start outside the active-set envelope (farther than the step
		// budget from the centroid) must also fall back: searching from
		// there would leave the region the pruned likelihood covers.
		far, err := s.LocalizeFrom(cold.Add(geom.V(400, 400)), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if far != cold {
			t.Errorf("trial %d: distant warm start should use the centroid: %v != %v", i, far, cold)
		}
	}
}

// TestSessionErrors pins the error contract of the session API.
func TestSessionErrors(t *testing.T) {
	model := deploy.MustNew(deploy.PaperConfig())
	b := NewBeaconlessModel(model)
	s := b.NewSession()
	if err := s.Bind(make([]int, model.NumGroups())); err != ErrNoObservation {
		t.Errorf("empty observation: %v, want ErrNoObservation", err)
	}
	if err := s.Bind([]int{1, 2, 3}); err != ErrNoObservation {
		t.Errorf("wrong length: %v, want ErrNoObservation", err)
	}
	if _, err := s.Localize(); err != ErrNoObservation {
		t.Errorf("unbound Localize: %v, want ErrNoObservation", err)
	}
	if v := s.LogLikelihoodAt(geom.Pt(1, 1)); !math.IsInf(v, -1) {
		t.Errorf("unbound LogLikelihoodAt = %v, want -Inf", v)
	}

	o := model.SampleObservation(geom.Pt(500, 500), -1, rng.New(3))
	if err := s.Bind(o); err != nil {
		t.Fatal(err)
	}
	all := make([]bool, model.NumGroups())
	for i := range all {
		all[i] = true
	}
	if _, err := s.LocalizeMasked(all); err != ErrNoObservation {
		t.Errorf("exclude-all: %v, want ErrNoObservation", err)
	}
	// The session recovers: an unmasked localize still works.
	if _, err := s.Localize(); err != nil {
		t.Errorf("localize after exclude-all: %v", err)
	}
}

// referenceAt is the pre-log-table likelihood the engine replaced, kept
// as a deviation oracle: g-table lookup in linear space, then clamp and
// math.Log/math.Log1p per active group per probe.
func referenceAt(ll *likelihood, p geom.Point) float64 {
	const eps = deploy.LogClampEps
	var sum float64
	for _, i := range ll.act {
		g := ll.gt.Eval(p.Dist(ll.model.DeploymentPoint(int(i))))
		o := ll.counts[i]
		if g <= 0 {
			// Neighbors from an unreachable group: strongly penalized but
			// finite, so the search can still climb out.
			sum += float64(o) * math.Log(eps)
			continue
		}
		g = math.Min(math.Max(g, eps), 1-eps)
		sum += float64(o)*math.Log(g) + float64(ll.m-o)*math.Log1p(-g)
	}
	return sum
}

// TestReferencePathAgreesWithEngine bounds the deviation between the
// log-space table engine and the reference arithmetic: the two
// likelihood surfaces differ only by table interpolation error, so their
// maximizers must land within a meter of each other.
func TestReferencePathAgreesWithEngine(t *testing.T) {
	model := deploy.MustNew(deploy.PaperConfig())
	engine := NewBeaconlessModel(model)
	s := engine.NewSession()
	ref := func(p geom.Point) float64 { return referenceAt(&s.ll, p) }
	r := rng.New(66)
	var worst float64
	for i := 0; i < 20; i++ {
		o := sampleObs(model, r, i)
		p1, err1 := engine.LocalizeObservation(o)
		if err := s.Bind(o); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		p2, err2 := scalarLocalizeFrom(s, ref, s.ll.centroid, 0, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", i, err1, err2)
		}
		worst = math.Max(worst, p1.Dist(p2))
	}
	if worst > 1.0 {
		t.Errorf("engine vs reference maximizers diverge by %.3f m, want < 1 m", worst)
	}
}

// TestLocalizeObservationZeroAllocs is the allocation-freedom acceptance
// check: after warmup, the pooled wrapper path must not allocate.
func TestLocalizeObservationZeroAllocs(t *testing.T) {
	model := deploy.MustNew(deploy.PaperConfig())
	b := NewBeaconlessModel(model)
	r := rng.New(77)
	o := sampleObs(model, r, 0)
	if _, err := b.LocalizeObservation(o); err != nil { // warm the pool
		t.Fatal(err)
	}
	// Under the race detector sync.Pool drops Puts at random by design,
	// so only the explicit-Session path can promise zero allocations
	// there; the pooled wrapper is asserted in normal builds.
	if !raceEnabled {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := b.LocalizeObservation(o); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("LocalizeObservation allocs/op = %v, want 0", allocs)
		}
	}

	// The explicit Session must hold 0 allocs/op under both simulation
	// epochs and on the 400-group grid.
	for _, tc := range []struct {
		name  string
		model *deploy.Model
		epoch int
	}{
		{"paper/epoch1", model, 1},
		{"paper/epoch2", model, 2},
		{"grid400/epoch1", deploy.MustNew(grid400Config()), 1},
	} {
		mle := NewBeaconlessModel(tc.model)
		mle.SetSimEpoch(tc.epoch)
		s := mle.NewSession()
		o := sampleObs(tc.model, r, 0)
		if _, err := s.BindLocalize(o); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.BindLocalize(o); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Session.BindLocalize allocs/op = %v, want 0", tc.name, allocs)
		}
	}
}

// TestConcurrentWrappers hammers the pooled wrappers from many
// goroutines under the race detector; results must match a reference
// computed sequentially.
func TestConcurrentWrappers(t *testing.T) {
	model := deploy.MustNew(deploy.PaperConfig())
	b := NewBeaconlessModel(model)
	r := rng.New(88)
	const n = 32
	obs := make([][]int, n)
	want := make([]geom.Point, n)
	for i := range obs {
		obs[i] = sampleObs(model, r, i)
		p, err := b.LocalizeObservation(obs[i])
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
			for i := 0; i < n; i++ {
				p, err := b.LocalizeObservation(obs[(i+w)%n])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if p != want[(i+w)%n] {
					t.Errorf("worker %d: trial %d diverged", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
