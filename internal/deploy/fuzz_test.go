package deploy

import (
	"math"
	"sync"
	"testing"
)

// fuzzTables are a few tables spanning the shapes the repo serves:
// the paper's parameters, a coarse low-resolution table, and a tight
// small-range one. Built once; fuzz iterations only evaluate.
var fuzzTables = sync.OnceValue(func() []*GTable {
	return []*GTable{
		NewGTable(50, 25, DefaultOmega),
		NewGTable(50, 25, 8),
		NewGTable(3, 0.5, 64),
		NewGTable(100, 1, 32),
	}
})

// FuzzBinomTable is the epoch-2 sampler's fuzz leg: arbitrary (n, p, u)
// must build a structurally sound inverse-CDF table (support inside
// [0, n], monotone CDF ending exactly at 1) whose guide-accelerated draw
// agrees with naive CDF inversion for any uniform input.
func FuzzBinomTable(f *testing.F) {
	f.Add(300, 0.3934693402873666, 0.5)
	f.Add(299, 1e-6, 0.999999)
	f.Add(1, 0.5, 0.0)
	f.Add(1000, 0.5, 0.25)
	f.Add(0, 0.3, 0.7)

	f.Fuzz(func(t *testing.T, n int, p, u float64) {
		if n < 0 || n > 4096 { // builder is O(support); keep iterations fast
			n = ((n % 4096) + 4096) % 4096
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return
		}
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return
		}
		u = math.Abs(u)
		u -= math.Floor(u) // draw's domain is [0, 1)

		tab := newBinomTable(n, p)
		lo, hi := int(tab.base), int(tab.base)+len(tab.cdf)-1
		if lo < 0 || (n > 0 && hi > n) || (n <= 0 && hi != 0) {
			t.Fatalf("n=%d p=%g: support [%d,%d] out of range", n, p, lo, hi)
		}
		for k := 1; k < len(tab.cdf); k++ {
			if tab.cdf[k] < tab.cdf[k-1] {
				t.Fatalf("n=%d p=%g: cdf not monotone at %d", n, p, k)
			}
		}
		if last := tab.cdf[len(tab.cdf)-1]; last != 1 {
			t.Fatalf("n=%d p=%g: final cdf entry %g, want exactly 1", n, p, last)
		}
		got := tab.draw(u)
		want := hi
		for k, c := range tab.cdf {
			if u < c {
				want = lo + k
				break
			}
		}
		if got != want {
			t.Fatalf("n=%d p=%g: draw(%v) = %d, naive inversion %d", n, p, u, got, want)
		}
	})
}

// FuzzGTableLogEval feeds fuzzed squared distances through the two
// log-companion evaluation paths — GTable.LogEval2 and LogAt over the
// raw LogTableView, the localization inner-loop form — and asserts the
// bit-identity contract the localization engine's exactness rests on,
// plus the clamp convention: both log-probabilities are finite, at most
// zero, and beyond MaxZ² collapse to (LnEps, 0).
func FuzzGTableLogEval(f *testing.F) {
	f.Add(uint8(0), 0.0, 1.0, 2500.0)
	f.Add(uint8(1), 1e-9, 39999.9, 40000.1) // straddle the paper table's MaxZ² = 200²
	f.Add(uint8(2), 0.25, 12.25, 1e6)
	f.Add(uint8(3), 0.0, 0.0, 0.0)

	f.Fuzz(func(t *testing.T, pick uint8, a, b, c float64) {
		tables := fuzzTables()
		g := tables[int(pick)%len(tables)]

		// The contract's domain: squared distances are finite and
		// non-negative (they are sums of squares in every caller).
		z2s := make([]float64, 0, 6)
		for _, z2 := range []float64{a, b, c} {
			if math.IsNaN(z2) || math.IsInf(z2, 0) {
				continue
			}
			z2s = append(z2s, math.Abs(z2))
		}
		// Exercise the right-edge branch explicitly alongside the
		// fuzzed values.
		z2s = append(z2s, g.MaxZ2(), math.Nextafter(g.MaxZ2(), 0), 0)

		v := g.LogTable()
		for _, z2 := range z2s {
			wantLn, wantLn1 := g.LogEval2(z2)
			lnG, ln1G := LogAt(v.Logs, v.InvStep, v.MaxZ2, v.LnEps, len(v.Logs)-2, z2)
			if math.Float64bits(lnG) != math.Float64bits(wantLn) || math.Float64bits(ln1G) != math.Float64bits(wantLn1) {
				t.Fatalf("LogAt(view, z2=%g) = (%x, %x), LogEval2 = (%x, %x): inner-loop path diverged",
					z2, math.Float64bits(lnG), math.Float64bits(ln1G),
					math.Float64bits(wantLn), math.Float64bits(wantLn1))
			}
			if math.IsNaN(wantLn) || math.IsNaN(wantLn1) || wantLn > 0 || wantLn1 > 0 {
				t.Fatalf("LogEval2(z2=%g) = (%g, %g): log-probabilities must be finite and <= 0", z2, wantLn, wantLn1)
			}
			if wantLn < g.LnEps() {
				t.Fatalf("LogEval2(z2=%g) ln g = %g below the clamp floor %g", z2, wantLn, g.LnEps())
			}
			if z2 >= g.MaxZ2() && (wantLn != g.LnEps() || wantLn1 != 0) {
				t.Fatalf("LogEval2(z2=%g) beyond MaxZ2 = (%g, %g), want (LnEps=%g, 0)", z2, wantLn, wantLn1, g.LnEps())
			}
		}
	})
}
