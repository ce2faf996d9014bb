package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of a traced unit of work. Spans of one
// unit share TraceID; Parent names the enclosing span of the same trace
// ("" for a root), and names are unique within a trace. Times are
// nanoseconds since the run's clock base.
//
// Nesting is logical, not temporal: the benchmark cannot time inside
// the server, so a live round trip's handler is measured by replaying
// the same bytes through a second server afterwards, and the replay's
// pool lookup and scoring by calling those layers directly. A child may
// therefore lie outside its parent's interval, and a span's self time
// is its duration minus its children's durations.
type span struct {
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// traceFile is the spans.json layout.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// recorder collects spans against one clock base.
type recorder struct {
	base  time.Time
	spans []span
}

func (r *recorder) add(trace, name, parent string, t0, t1 time.Time) {
	r.spans = append(r.spans, span{
		TraceID: trace, Name: name, Parent: parent,
		StartNS: t0.Sub(r.base).Nanoseconds(), EndNS: t1.Sub(r.base).Nanoseconds(),
	})
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// groupTraces splits spans by trace id, traces in first-seen order.
func groupTraces(spans []span) [][]span {
	idx := map[string]int{}
	var out [][]span
	for _, s := range spans {
		i, ok := idx[s.TraceID]
		if !ok {
			i = len(out)
			idx[s.TraceID] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], s)
	}
	return out
}

// selfTimes maps each span of one trace to its self time: its duration
// minus the durations of its direct children.
func selfTimes(trace []span) map[string]int64 {
	self := make(map[string]int64, len(trace))
	for _, s := range trace {
		self[s.Name] += s.dur()
		if s.Parent != "" {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// durationsUS collects the duration of every span named name across
// traces, in microseconds.
func durationsUS(traces [][]span, name string) []float64 {
	var out []float64
	for _, t := range traces {
		for _, s := range t {
			if s.Name == name {
				out = append(out, float64(s.dur())/1e3)
			}
		}
	}
	return out
}

// selfUS collects the self time of every span named name across traces,
// in microseconds.
func selfUS(traces [][]span, name string) []float64 {
	var out []float64
	for _, t := range traces {
		for _, s := range t {
			if s.Name == name {
				out = append(out, float64(selfTimes(t)[name])/1e3)
				break
			}
		}
	}
	return out
}

// unattributedShare is 1 − Σ(median self time of each layer span) /
// median(root duration) over the traces rooted at a span named root. A
// layer span missing from a trace counts as zero there, so a span that
// only some units have (a correction after an alarm) weighs in at its
// real frequency. The root's own self time — time between the live
// requests of a unit — belongs to no layer and so stays unattributed,
// as does the gap between a median of sums and a sum of medians.
func unattributedShare(traces [][]span, root string) float64 {
	var rooted [][]span
	layers := map[string]bool{}
	for _, t := range traces {
		isRooted := false
		for _, s := range t {
			if s.Name == root && s.Parent == "" {
				isRooted = true
			}
		}
		if !isRooted {
			continue
		}
		rooted = append(rooted, t)
		for _, s := range t {
			if s.Name != root {
				layers[s.Name] = true
			}
		}
	}
	if len(rooted) == 0 {
		return 0
	}
	var sum float64
	for name := range layers {
		vals := make([]float64, len(rooted))
		for i, t := range rooted {
			vals[i] = float64(selfTimes(t)[name])
		}
		sum += median(vals)
	}
	rootDur := make([]float64, 0, len(rooted))
	for _, t := range rooted {
		for _, s := range t {
			if s.Name == root {
				rootDur = append(rootDur, float64(s.dur()))
			}
		}
	}
	return 1 - sum/median(rootDur)
}
