package localize

import (
	"testing"

	"repro/internal/deploy"
	"repro/internal/rng"
	"repro/internal/wsn"
)

func BenchmarkBeaconlessMLE(b *testing.B) {
	model := deploy.MustNew(deploy.PaperConfig())
	mle := NewBeaconlessModel(model)
	r := rng.New(1)
	group, la := model.SampleLocation(r)
	o := model.SampleObservation(la, group, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mle.LocalizeObservation(o); err != nil {
			b.Fatal(err)
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
		NewCentroid(bs),
		NewWeightedCentroid(bs, PerfectRanger()),
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
