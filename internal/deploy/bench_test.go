package deploy

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func BenchmarkGExactQuadrature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GExact(float64(i%300), 50, 50)
	}
}

func BenchmarkGTableBuild(b *testing.B) {
	for _, omega := range []int{128, 512} {
		omega := omega
		b.Run(fmtOmega(omega), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewGTable(50, 50, omega)
			}
		})
	}
}

// BenchmarkGTableBuildParallel is the omega512 build with its samples
// spread over GOMAXPROCS goroutines, as training builds its model on
// every core it was granted.
func BenchmarkGTableBuildParallel(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		newGTable(50, 50, DefaultOmega, procs)
	}
}

func fmtOmega(o int) string {
	switch o {
	case 128:
		return "omega128"
	default:
		return "omega512"
	}
}

func BenchmarkGTableEval(b *testing.B) {
	gt := NewGTable(50, 50, DefaultOmega)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gt.Eval(float64(i % 350))
	}
}

func BenchmarkExpectedObservation(b *testing.B) {
	m := MustNew(PaperConfig())
	dst := make([]float64, m.NumGroups())
	p := geom.Pt(473, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ExpectedObservationInto(dst, p)
	}
}

func BenchmarkSampleObservation(b *testing.B) {
	m := MustNew(PaperConfig())
	r := rng.New(1)
	dst := make([]int, m.NumGroups())
	p := geom.Pt(473, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SampleObservationInto(dst, p, 0, r)
	}
}
