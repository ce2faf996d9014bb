// Command ladperf is the end-to-end benchmark of ladd's check, correct
// and train paths. It boots a real serve.Server in-process with
// cmd/ladd's defaults, drives it over loopback with at most two
// connections, checks every answer against an independently trained
// reference, and prints each metric by name with its unit and sample
// count. The last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1 or -trace <file>) reports the per-layer metrics and
// writes its spans. See README.md for the workloads and the metrics.
//
// Usage:
//
//	ladperf -workload batch-hot -seed 1 -seconds 20 -trace 0
//	ladperf -seed 1                      # every workload, each in a child process
//	ladperf -workload single-cold -trace spans.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// endToEnd and perLayer are the metrics the JSON summary carries in an
// untraced and a traced run; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"setup_s", "obs_per_s", "latency_p50_ms", "rss_peak_mb"}
	perLayer = []string{
		"latency_p99_ms",
		"net.transport_us_p50",
		"serve.handler_us_p50", "serve.self_us_p50", "serve.pool_lookup_us_p50",
		"serve.req_bytes", "serve.resp_bytes", "serve.pending_s_p50",
		"core.score_us_p50", "core.expcache_hit_ratio", "core.expectation_fill_us_p50",
		"core.alarm_ratio", "core.train_batch_ms_p50", "core.ckpt_encode_us_p50",
		"localize.correct_us_p50", "localize.localize_us_p50",
		"deploy.sample_obs_us_p50",
		"store.put_ms_p50",
		"sched.wait_s_mean", "sched.run_s_mean", "sched.batches",
		"runtime.alloc_kb_per_req", "runtime.gc_cycles", "runtime.cpu_us_per_obs",
		"trace.unattributed_share", "trace.overhead_share",
	}
)

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all (each in a child process)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window, in seconds")
	trace := flag.String("trace", "0", `0 for the end-to-end run; 1 or a file name for the traced per-layer run, whose spans go to that file (for 1, .bench_build/spans-<workload>.json)`)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "ladperf: -seconds must be at least 1")
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}

	cfg := defaultConfig(*workload, *seed, *seconds)
	tracePath := *trace
	switch tracePath {
	case "0", "":
		tracePath = ""
	case "1":
		tracePath = filepath.Join(cfg.scratch, "spans-"+*workload+".json")
	}
	cfg.trace = tracePath != ""
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladperf:", err)
		os.Exit(1)
	}
	if cfg.trace {
		if err := writeTrace(tracePath, traceFile{Workload: cfg.workload, Seed: cfg.seed, Spans: res.spans}); err != nil {
			fmt.Fprintln(os.Stderr, "ladperf:", err)
			os.Exit(1)
		}
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	printReport(os.Stdout, res)
	line, err := summary(res, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladperf:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// printReport writes the human-readable report: counts, then every
// metric with its unit and sample count, then notes.
func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "ladperf %s: sent %d, succeeded %d, failed %d\n",
		res.workload, res.attempted, res.attempted-res.failed, res.failed)
	for _, m := range res.metrics {
		n := ""
		if m.n > 0 {
			n = "n=" + strconv.Itoa(m.n)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-8s %s\n", m.name, m.value, m.unit, n)
	}
	for _, note := range res.notes {
		fmt.Fprintf(w, "  # %s\n", note)
	}
}

// value is one metric in the JSON summary.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the JSON summary's shape.
type summaryLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summary renders the JSON summary with the named metrics, each of
// which the run must have produced as a finite number.
func summary(res *result, names []string) (string, error) {
	line := summaryLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(names)),
	}
	for _, name := range names {
		m, ok := res.get(name)
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("%s: metric %s has no value", res.workload, name)
		}
		line.Metrics[name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

// runAll runs every workload in a child process of its own (so each
// has its own heap, and rss_peak_mb is that workload's alone), relays
// their reports, and ends with one JSON summary whose metrics are named
// <workload>.<metric>. It returns the exit code.
func runAll(seed uint64, seconds int, trace string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladperf:", err)
		return 1
	}
	all := summaryLine{Correct: true, Metrics: map[string]value{}}
	code := 0
	for _, w := range workloadNames {
		childTrace := trace
		if trace != "0" && trace != "1" && trace != "" {
			childTrace = strings.TrimSuffix(trace, ".json") + "-" + w + ".json"
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", childTrace)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		err := cmd.Run()
		var child summaryLine
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &child); jerr != nil {
			err = errors.Join(err, fmt.Errorf("%s: no summary line", w))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ladperf: %s: %v\n", w, err)
			code = 1
		}
		all.Correct = all.Correct && child.Correct && err == nil
		all.Attempted += child.Attempted
		all.Failed += child.Failed
		for name, v := range child.Metrics {
			all.Metrics[w+"."+name] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladperf:", err)
		return 1
	}
	fmt.Println(string(b))
	return code
}
