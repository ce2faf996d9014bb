// Package metrics is ladd's stdlib-only metrics registry and its one
// Prometheus text-format writer. A subsystem registers each series once,
// with its label values fixed at registration, and keeps the returned
// Counter or Histogram for its hot path; values that only exist at
// scrape time (hit rates, state counts, budget bytes) register a
// function instead.
//
// Registering a series that already exists is not an error: Counter and
// Histogram return the existing instance, and Gauge and CounterFunc
// re-point the series at the new function. That lets a component that is
// rebuilt during setup, such as the training scheduler, register again
// without double-exporting.
package metrics

import (
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. Safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Add adds n.
//
//lad:noalloc
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc adds one.
//
//lad:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram counts observations into fixed buckets. Each bucket holds
// only its own observations; the writer makes them cumulative from one
// snapshot, so the +Inf bucket always equals _count. Safe for concurrent
// use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // counts[i]: observations in (bounds[i-1], bounds[i]]; the last is +Inf
	sum    atomic.Uint64   // float64 bits
}

// Observe records one value.
//
//lad:noalloc
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Totals is a histogram's observation count and sum.
type Totals struct {
	Count uint64
	Sum   float64
}

// Totals returns the observation count and sum.
func (h *Histogram) Totals() Totals {
	var t Totals
	for i := range h.counts {
		t.Count += h.counts[i].Load()
	}
	t.Sum = math.Float64frombits(h.sum.Load())
	return t
}

// series is one labelled time series of a family: exactly one of
// counter, hist and fn is set.
type series struct {
	labels  string // `k="v",…`, without braces
	counter *Counter
	hist    *Histogram
	fn      func() float64
}

type family struct {
	name, help, typ string
	series          []*series // registration order
}

// Registry holds metric families and writes them in the Prometheus text
// format. Safe for concurrent use.
type Registry struct {
	mu sync.Mutex
	//lad:guardedby mu
	families []*family // sorted by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers the counter series name{labels} and returns it.
// labels alternates label names and values.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.series(name, help, "counter", labels, func(s *series) {
		if s.counter == nil {
			s.counter = new(Counter)
		}
	})
	return s.counter
}

// CounterFunc registers a counter series whose value f computes at
// scrape time.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...string) {
	r.series(name, help, "counter", labels, func(s *series) { s.fn = f })
}

// Gauge registers a gauge series whose value f computes at scrape time.
func (r *Registry) Gauge(name, help string, f func() float64, labels ...string) {
	r.series(name, help, "gauge", labels, func(s *series) { s.fn = f })
}

// Histogram registers the histogram series name{labels} with the given
// ascending bucket upper bounds and returns it.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	s := r.series(name, help, "histogram", labels, func(s *series) {
		if s.hist == nil {
			s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
		}
	})
	return s.hist
}

// series finds or creates the series name{labels} and calls set on it
// under the registry lock. A family's help and type are fixed by its
// first registration; registering it again with different ones, without
// help text, or with an odd label list, is a programming error and
// panics.
func (r *Registry) series(name, help, typ string, labels []string, set func(*series)) *series {
	if help == "" || len(labels)%2 != 0 {
		panic("metrics: " + name + " needs help text and name/value label pairs")
	}
	var ls []byte
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			ls = append(ls, ',')
		}
		ls = append(ls, labels[i]...)
		ls = append(ls, '=')
		ls = strconv.AppendQuote(ls, labels[i+1])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, found := slices.BinarySearchFunc(r.families, name, func(f *family, name string) int { return strings.Compare(f.name, name) })
	if !found {
		r.families = slices.Insert(r.families, i, &family{name: name, help: help, typ: typ})
	}
	f := r.families[i]
	if f.help != help || f.typ != typ {
		panic("metrics: " + name + " re-registered with different help or type")
	}
	for _, s := range f.series {
		if s.labels == string(ls) {
			set(s)
			return s
		}
	}
	s := &series{labels: string(ls)}
	set(s)
	f.series = append(f.series, s)
	return s
}

// WriteTo writes every family, sorted by name, in the Prometheus text
// exposition format (version 0.0.4). Scrape-time functions run under the
// registry lock, so they must not register series.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	var b []byte
	for _, f := range r.families {
		b = append(b, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.typ+"\n"...)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				b = appendSample(b, f.name, s.labels, float64(s.counter.Load()))
			case s.fn != nil:
				b = appendSample(b, f.name, s.labels, s.fn())
			default:
				b = s.hist.appendTo(b, f.name, s.labels)
			}
		}
	}
	r.mu.Unlock()
	n, err := w.Write(b)
	return int64(n), err
}

// appendTo writes the histogram's buckets, sum and count from one load
// of each bucket.
func (h *Histogram) appendTo(b []byte, name, labels string) []byte {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'f', -1, 64)
		}
		b = appendSample(b, name+"_bucket", labels+sep+`le="`+le+`"`, float64(cum))
	}
	b = appendSample(b, name+"_sum", labels, math.Float64frombits(h.sum.Load()))
	return appendSample(b, name+"_count", labels, float64(cum))
}

// appendSample writes one sample line. Whole numbers print as integers
// (byte counts stay exact and free of exponents), everything else in
// Go's shortest %g form.
func appendSample(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}
