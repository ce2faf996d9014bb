package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile for it to mean anything: with fewer, the "p99" of a small
// sample is just its maximum.
const minTail = 10

// tailPercentile returns the highest percentile of an n-sample that
// leaves at least minTail samples beyond it (75 for 40 samples, 99 for
// 1000), and false when n is too small to support any tail.
func tailPercentile(n int) (float64, bool) {
	if n <= minTail {
		return 0, false
	}
	return 100 * (1 - float64(minTail)/float64(n)), true
}

// percentile is the nearest-rank p-th percentile of an ascending
// sample: the smallest value with at least p% of the sample at or below
// it. NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	// The epsilon keeps exact ranks (75% of 40 = 30) from rounding up
	// through floating-point error.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return sorted[min(max(rank-1, 0), n-1)]
}

// median of an unsorted sample (mean of the middle pair for even n);
// NaN when empty. The input is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of a sample; NaN when empty.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sample is one timed unit of work: when it completed, in microseconds
// since the start of the measured window; how long it took, in
// nanoseconds (saturating at about 4.3 s); how many observations it
// checked; and the host's slowdown the probe last measured before it, in
// thousandths. A run keeps hundreds of thousands of them, and since their
// number follows the throughput, so would rss_peak_mb if they were
// large; packed, they are 12 bytes each.
type sample struct {
	atUS   uint32
	latNS  uint32
	obs    uint16
	slowPM uint16
}

func newSample(at, lat time.Duration, obs int, slow float64) sample {
	return sample{
		atUS:   uint32(max(at, 0) / time.Microsecond),
		latNS:  uint32(min(max(lat, 0), math.MaxUint32)),
		obs:    uint16(obs),
		slowPM: uint16(min(max(math.Round(slow*1000), 1), math.MaxUint16)),
	}
}

func (s sample) at() time.Duration { return time.Duration(s.atUS) * time.Microsecond }

func (s sample) slow() float64 { return float64(s.slowPM) / 1000 }

// pause is a probe's interruption of a closed loop: when it began, since
// the start of the measured window, and how long it lasted.
type pause struct{ at, d time.Duration }

// sampleLog is an append-only record of samples kept in fixed-size
// chunks, so recording never copies what came before: a doubling slice
// would make a transient copy of the whole record at each growth, and
// that copy would show in rss_peak_mb.
type sampleLog struct{ chunks [][]sample }

const sampleChunk = 4096

func (l *sampleLog) add(s sample) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == sampleChunk {
		l.chunks = append(l.chunks, make([]sample, 0, sampleChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, s)
}

// latencyMS converts sample latencies to ascending milliseconds, each
// divided by its slowdown when scaled.
func latencyMS(ss []sample, scaled bool) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.latNS) / 1e6
		if scaled {
			out[i] /= s.slow()
		}
	}
	slices.Sort(out)
	return out
}

// windowSummary is what windowStats derives from a measured window.
type windowSummary struct {
	rate, p50, p99 float64 // obs/s, ms, ms: medians over the sub-windows
	minCount       int     // samples in the smallest sub-window
}

// windowStats splits a measured window of length span into n equal
// sub-windows by completion time and returns the medians, across
// sub-windows, of their throughput (observations per second), p50 and
// p99 latency (ms), with the smallest sub-window's sample count. A whole-
// run figure moves with every burst of a noisy neighbour or a GC storm;
// the median sub-window does not, as long as most of the run is calm.
// A sub-window's throughput counts its length less the probe pauses in
// it. When scaled, latencies are divided by their slowdowns, and
// throughput is multiplied by the sub-window's mean slowdown weighted by
// latency, which is the same correction applied to the time its units
// took. Empty sub-windows are skipped.
func windowStats(ss []sample, pauses []pause, span time.Duration, n int, scaled bool) windowSummary {
	bucket := func(at time.Duration) int { return min(max(int(int64(at)*int64(n)/int64(span)), 0), n-1) }
	buckets := make([][]sample, n)
	for _, s := range ss {
		i := bucket(s.at())
		buckets[i] = append(buckets[i], s)
	}
	paused := make([]time.Duration, n)
	for _, p := range pauses {
		paused[bucket(p.at)] += p.d
	}
	var rates, p50s, p99s []float64
	minCount := -1
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		obs, lat, scaledLat := 0, 0.0, 0.0
		for _, s := range b {
			obs += int(s.obs)
			lat += float64(s.latNS)
			scaledLat += float64(s.latNS) / s.slow()
		}
		rate := float64(obs) / (span/time.Duration(n) - paused[i]).Seconds()
		if scaled && scaledLat > 0 {
			rate *= lat / scaledLat
		}
		rates = append(rates, rate)
		ms := latencyMS(b, scaled)
		p50s = append(p50s, percentile(ms, 50))
		p99s = append(p99s, percentile(ms, 99))
		if minCount < 0 || len(b) < minCount {
			minCount = len(b)
		}
	}
	return windowSummary{median(rates), median(p50s), median(p99s), max(minCount, 0)}
}
