package metrics

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWriteToFormat(t *testing.T) {
	r := NewRegistry()
	ok := r.Counter("x_requests_total", "Requests by code.", "endpoint", "check", "code", "2xx")
	r.Counter("x_requests_total", "Requests by code.", "endpoint", "check", "code", "5xx")
	ok.Add(41)
	ok.Inc()
	r.Gauge("x_rate", "A rate.", func() float64 { return 0.25 })
	r.Gauge("x_bytes", "Bytes.", func() float64 { return 16 << 20 })
	h := r.Histogram("x_seconds", "Latency.", []float64{0.0005, 0.25, 1, 120}, "endpoint", "check")
	for _, v := range []float64{0.0001, 0.0005, 0.3, 500} {
		h.Observe(v)
	}
	want := `# HELP x_bytes Bytes.
# TYPE x_bytes gauge
x_bytes 16777216
# HELP x_rate A rate.
# TYPE x_rate gauge
x_rate 0.25
# HELP x_requests_total Requests by code.
# TYPE x_requests_total counter
x_requests_total{endpoint="check",code="2xx"} 42
x_requests_total{endpoint="check",code="5xx"} 0
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{endpoint="check",le="0.0005"} 2
x_seconds_bucket{endpoint="check",le="0.25"} 2
x_seconds_bucket{endpoint="check",le="1"} 3
x_seconds_bucket{endpoint="check",le="120"} 3
x_seconds_bucket{endpoint="check",le="+Inf"} 4
x_seconds_sum{endpoint="check"} 500.3006
x_seconds_count{endpoint="check"} 4
`
	if got := scrape(t, r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if tot := h.Totals(); tot.Count != 4 || tot.Sum != 500.3006 {
		t.Errorf("totals = %+v, want 4 observations summing to 500.3006", tot)
	}
}

func TestReRegistrationReusesSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.", "outcome", "ok")
	if b := r.Counter("x_total", "X.", "outcome", "ok"); a != b {
		t.Error("re-registering a counter returned a new instance")
	}
	h := r.Histogram("x_seconds", "X.", []float64{1})
	if r.Histogram("x_seconds", "X.", []float64{1}) != h {
		t.Error("re-registering a histogram returned a new instance")
	}
	r.Gauge("x_depth", "X.", func() float64 { return 1 })
	r.Gauge("x_depth", "X.", func() float64 { return 2 })
	if text := scrape(t, r); !strings.Contains(text, "x_depth 2\n") || strings.Count(text, "\nx_depth ") != 1 {
		t.Errorf("re-registered gauge not re-pointed:\n%s", text)
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering with a different type did not panic")
		}
	}()
	r.Gauge("x_total", "X.", func() float64 { return 0 })
}

// TestScrapeConsistency scrapes while goroutines observe. On every
// scrape each histogram's cumulative buckets must be non-decreasing in
// le and never fall below the previous scrape's, and +Inf must equal
// _count.
func TestScrapeConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1}, "endpoint", "check")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i%2000) / 1000)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	prev := map[string]uint64{}
	for n := 0; n < 200; n++ {
		var last, inf uint64
		for _, line := range strings.Split(strings.TrimSpace(scrape(t, r)), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			id, val, _ := strings.Cut(line, " ")
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				continue // _sum
			}
			switch {
			case strings.HasPrefix(id, "x_seconds_bucket"):
				if v < last {
					t.Fatalf("scrape %d: %s = %d below the previous bucket's %d", n, id, v, last)
				}
				if v < prev[id] {
					t.Fatalf("scrape %d: %s fell from %d to %d", n, id, prev[id], v)
				}
				last, prev[id] = v, v
				if strings.Contains(id, `le="+Inf"`) {
					inf = v
				}
			case strings.HasPrefix(id, "x_seconds_count"):
				if v != inf {
					t.Fatalf("scrape %d: +Inf bucket %d != _count %d", n, inf, v)
				}
			}
		}
	}
}

func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "X.")
	h := r.Histogram("x_seconds", "X.", []float64{0.001, 0.01, 0.1, 1})
	if n := testing.AllocsPerRun(1000, func() { c.Add(3); c.Inc() }); n != 0 {
		t.Errorf("Counter.Add/Inc: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.05) }); n != 0 {
		t.Errorf("Histogram.Observe: %v allocs/op, want 0", n)
	}
}
