package localize

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/wsn"
)

// grid400Config is the paper deployment on a 4x wider field at the same
// group density: 400 groups.
func grid400Config() deploy.Config {
	cfg := deploy.PaperConfig()
	cfg.Field = geom.NewRect(geom.Pt(0, 0), geom.Pt(2000, 2000))
	cfg.GroupsX, cfg.GroupsY = 20, 20
	return cfg
}

// taintedObs draws n Diff-greedy Dec-Bounded tainted observations on the
// paper deployment: an in-field victim, its location forged d meters
// away, and x compromised neighbors shaping the observation toward the
// forged location's expectation — the inputs an alarm's correction
// localizes.
func taintedObs(model *deploy.Model, n int, d float64, x int, r *rng.Rand) [][]int {
	obs := make([][]int, n)
	for i := range obs {
		group, la := model.SampleLocation(r)
		for !model.Field().Contains(la) {
			group, la = model.SampleLocation(r)
		}
		a := model.SampleObservation(la, group, r)
		le := attack.ForgeLocationInField(la, d, model.Field(), r, 64)
		obs[i] = attack.NewDiffMinimizer(model.ExpectedObservation(le), attack.DecBounded).Taint(a, x)
	}
	return obs
}

// BenchmarkBeaconlessMLE times one steady-state localization on a reused
// Session (the training loop's shape) per deployment and simulation
// epoch: epoch 1's replaying compass search, epoch 2's full poll. The
// benign cases localize one observation repeatedly; the tainted case
// cycles through 256 tainted observations (D = 160 m, 10 compromised
// neighbors) — the correction path's inputs, whose searches take other
// paths than benign ones.
func BenchmarkBeaconlessMLE(b *testing.B) {
	paper := deploy.MustNew(deploy.PaperConfig())
	grid400 := deploy.MustNew(grid400Config())
	cases := []struct {
		name  string
		model *deploy.Model
		obs   [][]int
	}{
		{"paper100", paper, [][]int{sampleObs(paper, rng.New(43), 0)}},
		{"grid400", grid400, [][]int{sampleObs(grid400, rng.New(43), 0)}},
		{"paper100-tainted", paper, taintedObs(paper, 256, 160, 10, rng.New(44))},
	}
	for _, c := range cases {
		for _, epoch := range []int{1, 2} {
			mle := NewBeaconlessModel(c.model)
			mle.SetSimEpoch(epoch)
			s := mle.NewSession()
			b.Run(fmt.Sprintf("%s/epoch%d", c.name, epoch), func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					if _, err := s.BindLocalize(c.obs[i%len(c.obs)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		}
	}
}

func BenchmarkDVHopBuild(b *testing.B) {
	net := testNetwork(1)
	bs := SelectBeacons(net, 12, 60, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDVHop(net, bs)
	}
}

func BenchmarkSchemeLocalize(b *testing.B) {
	net := testNetwork(3)
	r := rng.New(4)
	bs := SelectBeacons(net, 30, 250, r)
	schemes := []Scheme{
		NewMMSE(bs, PerfectRanger()),
		NewMinMax(bs, PerfectRanger()),
	}
	for _, s := range schemes {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = s.Localize(wsn.NodeID(i % net.Len()))
			}
		})
	}
}
