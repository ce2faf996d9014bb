package localize

import (
	"fmt"
	"testing"

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

// BenchmarkBeaconlessMLE times one steady-state localization on a reused
// Session (the training loop's shape) per deployment and simulation
// epoch: epoch 1's replaying compass search, epoch 2's full poll.
func BenchmarkBeaconlessMLE(b *testing.B) {
	for name, cfg := range map[string]deploy.Config{"paper100": deploy.PaperConfig(), "grid400": grid400Config()} {
		model := deploy.MustNew(cfg)
		o := sampleObs(model, rng.New(43), 0)
		for _, epoch := range []int{1, 2} {
			mle := NewBeaconlessModel(model)
			mle.SetSimEpoch(epoch)
			s := mle.NewSession()
			b.Run(fmt.Sprintf("%s/epoch%d", name, epoch), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := s.BindLocalize(o); err != nil {
						b.Fatal(err)
					}
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
