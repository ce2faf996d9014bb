// Command ladbench measures the LAD hot paths and emits the results as
// JSON, so every PR can record a comparable perf snapshot (BENCH_PR2.json
// covers scoring, BENCH_PR3.json adds training/localization) and CI can
// upload one per push.
//
// Scoring section — for each metric, three paths over the same items
// (batch -batch, -locations distinct claimed locations, paper
// deployment):
//
//   - sequential: one fresh Check per item — the naive reference.
//   - batch_pr1:  CheckBatchInto with the expectation cache disabled and
//     one worker — algorithmically the PR 1 batch path (per-batch
//     location dedup + pooled buffers), kept runnable so speedups are
//     measured, not remembered.
//   - batch:      CheckBatchInto as served today — cross-request
//     expectation cache, lazily built log-PMF tables, sharded workers.
//
// Training/localization section — for the paper deployment (100 groups)
// and a 4× larger one (400 groups), the engine path each: deploy.Model's
// group index prunes sampling and expectations, the likelihood reads
// ln g / ln(1−g) from GTable's log companion (zero math.Log per probe)
// through the batched SoA probe engine, and per-worker
// localize.Sessions reuse all scratch. The full-scan, reference-
// likelihood and scalar-probe paths it replaced live on only as test
// oracles; their timings are history in BENCH_PR3–PR10.json (the
// pre_pr3 rows and the probe_batch section).
//
// Snapshot section — the durability layer: canonical snapshot encode
// and strict decode (both gated to zero allocs/op), plus the full
// adopt-from-disk path (checksummed store read + decode + detector
// rebuild) — the restart latency a daemon with -store-dir pays per
// detector instead of retraining.
//
// Sim-epoch section (schema 7) — the paper deployment trained and
// localized under both simulation epochs in the same run and binary:
//
//   - epoch1: the bit-identical reference path — exact Binomial(m, g)
//     draws and the replaying compass search.
//   - epoch2: the table-driven binomial sampler plus the fused full-poll
//     probe kernel (TrainConfig.SimEpoch = 2) — distribution-level
//     equivalent, not bit-identical, which is exactly why it is gated
//     here: the epoch-2 threshold must land within 1.5× the training
//     sample's 98.5–99.5 percentile spread of the epoch-1 threshold,
//     and epoch-2 steady-state localization must stay 0 allocs/op.
//
// Scheduler section (schema 8) — the fair-share training scheduler's
// checkpoint seam on the paper deployment:
//
//   - ckpt_encode / ckpt_decode: TrainCheckpoint.AppendBinary into a
//     reused buffer and UnmarshalBinary into a reused receiver — the
//     cost a training flight pays between batches to stay resumable.
//     Both are gated to zero allocs/op: checkpointing rides the
//     training hot loop and must not feed the GC.
//   - train_scratch / train_resume: a full training run from trial
//     zero against decode + resume + the remaining 20% from an
//     80%-progress checkpoint. The resumed threshold is gated
//     bit-identical to the scratch threshold before timing;
//     speedup_resume records the scratch/resume factor — what a
//     restarted daemon saves per warm detector.
//
// Every trainResult row carries sim_epoch so sections can be filtered
// by epoch; speedup_sim_epoch records the within-run epoch-2/epoch-1
// training-throughput factor — the headline number of the epoch-2 work.
//
// Equality is asserted before timing: scoring paths must produce
// verdicts bit-identical to fresh Check, the epoch-2 threshold must land
// in epoch 1's tolerance band, a resumed training run must match its
// scratch run bit for bit, and the steady-state localization benchmarks
// must report zero allocs/op. A violation is a hard failure, because a
// fast wrong answer is not a benchmark result. (The bit-identity of the
// engine paths to their full-scan and scalar-probe oracles is enforced
// by race-enabled tests in internal/deploy and internal/localize.)
//
// Every benchmark runs -runs times (default 5) and the MEDIAN ns/op is
// recorded: the 2-core shared runners drift ±15% run to run, and the
// median of five is far less movable than any single run, which lets
// the CI gate use a much tighter -max-regress bound.
//
// Each snapshot additionally records reference_ns_per_op: the median of
// a fixed arithmetic kernel that never changes with the code under
// test. When both sides of a -baseline comparison carry it, drift and
// -max-regress are computed on reference-normalized numbers — a runner
// that is 1.3× slower across the board shows a 1.3× reference too, so
// uniform machine speed differences cancel instead of tripping (or
// masking) the regression gate. Baselines without a reference (schema
// ≤ 4) fall back to the absolute comparison.
//
// Usage:
//
//	go run ./cmd/ladbench -out BENCH_PR5.json
//	go run ./cmd/ladbench -baseline BENCH_PR5.json                 # print drift vs a snapshot
//	go run ./cmd/ladbench -baseline BENCH_PR5.json -max-regress 30 # hard-fail on >30% regressions
//	go run ./cmd/ladbench -runs 1                                  # quick single-shot (noisier)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/rng"
	"repro/internal/store"
)

// result is one timed scoring configuration.
type result struct {
	Name        string  `json:"name"`
	Metric      string  `json:"metric"`
	Path        string  `json:"path"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerItem   float64 `json:"ns_per_item"`
	ItemsPerSec float64 `json:"items_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// trainResult is one timed training or localization configuration.
type trainResult struct {
	Name         string  `json:"name"`
	Deployment   string  `json:"deployment"`
	Groups       int     `json:"groups"`
	Kind         string  `json:"kind"` // "train", "localize", "snapshot" or "sched"
	Path         string  `json:"path"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	// SimEpoch is the simulation epoch the row ran under: 1 for the
	// bit-identical reference path, 2 for the table-sampler fast path.
	// Rows from schema ≤ 6 baselines predate the field and decode as 0;
	// they were all epoch-1 runs.
	SimEpoch int `json:"sim_epoch,omitempty"`
}

// benchRuns is how many times each benchmark runs; every recorded
// number is the median-by-ns/op run. Medians ride out the 2-core shared
// runner's ±15% run-to-run drift (a single outlier run cannot move
// them), which is what lets CI gate with a much tighter -max-regress
// than a single-shot measurement could.
var benchRuns = 5

// benchMedian runs f benchRuns times through testing.Benchmark and
// returns the run with the median ns/op (lower-middle for even counts).
// Alloc stats come from the same median run, so the reported line is an
// actual measured run, not a blend.
func benchMedian(f func(b *testing.B)) testing.BenchmarkResult {
	rs := make([]testing.BenchmarkResult, benchRuns)
	for i := range rs {
		rs[i] = testing.Benchmark(f)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].NsPerOp() < rs[j].NsPerOp() })
	return rs[(len(rs)-1)/2]
}

// refSink keeps the compiler from eliding referenceBench's work.
var refSink float64

// referenceBench is the fixed runner-calibration kernel: xorshift64*
// mixing feeding a float accumulation, no memory traffic, no
// repository code. Its ns/op depends only on the machine (and, weakly,
// the Go version — recorded alongside), so the ratio between two
// snapshots' references is the ratio of their runners' speeds.
func referenceBench(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := uint64(0x9E3779B97F4A7C15)
		s := 0.0
		for j := 0; j < 1<<16; j++ {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			x *= 0x2545F4914F6CDD1D
			s += float64(x>>11) * (1.0 / (1 << 53))
		}
		refSink = s
	}
}

// report is the JSON document ladbench writes.
type report struct {
	Schema      int    `json:"schema"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Batch       int    `json:"batch"`
	Locations   int    `json:"locations"`
	TrainTrials int    `json:"train_trials"`
	// Runs is benchRuns: how many runs each median was taken over.
	Runs int `json:"runs"`
	// ReferenceNsPerOp is the median ns/op of referenceBench, a fixed
	// arithmetic kernel independent of the code under test. It measures
	// the RUNNER, not the repository: baseline comparisons divide it out
	// so snapshots taken on machines of different speeds stay
	// comparable.
	ReferenceNsPerOp float64  `json:"reference_ns_per_op"`
	Results          []result `json:"results"`
	// SpeedupVsPR1 is, per metric, batch_pr1 ns/op over batch ns/op —
	// the factor the table-driven cached path buys over the PR 1 batch
	// path on identical items.
	SpeedupVsPR1 map[string]float64 `json:"speedup_vs_pr1"`
	// Training holds the training/localization section.
	Training []trainResult `json:"training"`
	// Snapshot holds the durability section: canonical snapshot encode,
	// strict decode (0 allocs/op gated — the adoption and persistence
	// hot path), and the full adopt-from-disk path (checksummed store
	// read + decode + model rebuild), which is the restart latency a
	// booting node pays per detector instead of retraining.
	Snapshot []trainResult `json:"snapshot"`
	// SimEpochRows holds the sim-epoch section: the paper deployment
	// trained and localized under epoch 1 (bit-identical reference) and
	// epoch 2 (table sampler + full-poll probe kernel) in the same run,
	// threshold-tolerance and allocation gated before timing.
	SimEpochRows []trainResult `json:"sim_epoch"`
	// SpeedupSimEpoch is, per deployment, epoch-1 training ns/op over
	// epoch-2 ns/op — the within-run, same-binary throughput factor the
	// epoch-2 simulation path buys at identical seed and trial count.
	SpeedupSimEpoch map[string]float64 `json:"speedup_sim_epoch"`
	// Scheduler holds the scheduler section: checkpoint encode/decode
	// (both zero-alloc gated) and full-training-from-scratch against
	// decode + resume-from-80% — the batch-boundary durability seam the
	// fair-share scheduler drives.
	Scheduler []trainResult `json:"scheduler"`
	// SpeedupResume is, per deployment, scratch training ns/op over
	// resume-from-80%-checkpoint ns/op — the restart saving a resumable
	// flight buys over retraining from trial zero.
	SpeedupResume map[string]float64 `json:"speedup_resume"`
}

func main() {
	var (
		out        = flag.String("out", "", "write the JSON report here (default stdout)")
		batch      = flag.Int("batch", 256, "items per batch")
		locations  = flag.Int("locations", 8, "distinct claimed locations per batch")
		trials     = flag.Int("trials", 300, "training trials per detector")
		runs       = flag.Int("runs", 5, "times to run each benchmark; the MEDIAN ns/op is recorded, damping shared-runner noise so -max-regress can be tight")
		baseline   = flag.String("baseline", "", "previous ladbench JSON snapshot to print speedups against")
		maxRegress = flag.Float64("max-regress", 0, "hard-fail when any benchmark shared with -baseline regresses more than this percentage (0 disables)")
	)
	flag.Parse()
	if *runs < 1 {
		*runs = 1
	}
	benchRuns = *runs

	model, err := deploy.New(deploy.PaperConfig())
	if err != nil {
		log.Fatalf("ladbench: %v", err)
	}

	rep := report{
		Schema:          9,
		Runs:            *runs,
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Batch:           *batch,
		Locations:       *locations,
		TrainTrials:     *trials,
		SpeedupVsPR1:    map[string]float64{},
		SpeedupSimEpoch: map[string]float64{},
		SpeedupResume:   map[string]float64{},
	}

	rep.ReferenceNsPerOp = float64(benchMedian(referenceBench).NsPerOp())
	scoringSection(&rep, model, *batch, *locations, *trials)
	trainingSection(&rep, *trials)
	simEpochSection(&rep, *trials)
	snapshotSection(&rep, model, *trials)
	schedulerSection(&rep, model, *trials)

	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("ladbench: %v", err)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatalf("ladbench: %v", err)
	}
	for m, s := range rep.SpeedupVsPR1 {
		fmt.Fprintf(os.Stderr, "ladbench: %-12s batch speedup vs PR1 path: %.2fx\n", m, s)
	}
	for d, s := range rep.SpeedupSimEpoch {
		fmt.Fprintf(os.Stderr, "ladbench: %-12s training speedup, sim epoch 2 vs epoch 1: %.2fx\n", d, s)
	}
	for d, s := range rep.SpeedupResume {
		fmt.Fprintf(os.Stderr, "ladbench: %-12s training speedup, resume from 80%% vs scratch: %.2fx\n", d, s)
	}
	if *baseline != "" {
		compareBaseline(*baseline, rep, *maxRegress)
	}
}

func scoringSection(rep *report, model *deploy.Model, batch, locations, trials int) {
	for _, metric := range core.AllMetrics() {
		items := sampleItems(model, batch, locations)
		fresh, _, err := core.Train(model, metric, core.TrainConfig{
			Trials: trials, Percentile: 99, Seed: 41, KeepInField: true,
		})
		if err != nil {
			log.Fatalf("ladbench: training %s: %v", metric.Name(), err)
		}
		// The PR 1-equivalent path: same model and threshold, per-batch
		// dedup only, single worker, no cache, no tables.
		pr1 := core.NewDetector(model, metric, fresh.Threshold())
		pr1.SetExpCacheCapacity(0)
		pr1.SetBatchWorkers(1)

		assertIdentical(metric.Name(), fresh, pr1, items)

		dst := make([]core.Verdict, len(items))
		seq := benchMedian(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, it := range items {
					_ = fresh.Check(it.Observation, it.Location)
				}
			}
		})
		old := benchMedian(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr1.CheckBatchInto(dst, items)
			}
		})
		now := benchMedian(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fresh.CheckBatchInto(dst, items)
			}
		})

		for _, r := range []struct {
			path string
			res  testing.BenchmarkResult
		}{{"sequential", seq}, {"batch_pr1", old}, {"batch", now}} {
			rep.Results = append(rep.Results, toResult(metric.Name(), r.path, batch, r.res))
		}
		rep.SpeedupVsPR1[metric.Name()] = float64(old.NsPerOp()) / float64(now.NsPerOp())
	}
}

// benchDeployments are the training-section configurations: the paper
// setup and a 4× wider field at the same group density, where spatial
// pruning pays even more.
func benchDeployments() []struct {
	name string
	cfg  deploy.Config
} {
	big := deploy.Config{
		Field:     geom.NewRect(geom.Pt(0, 0), geom.Pt(2000, 2000)),
		GroupsX:   20,
		GroupsY:   20,
		GroupSize: 300,
		Sigma:     50,
		Range:     50,
		Layout:    deploy.LayoutGrid,
	}
	return []struct {
		name string
		cfg  deploy.Config
	}{
		{"paper100", deploy.PaperConfig()},
		{"grid400", big},
	}
}

func trainingSection(rep *report, trials int) {
	// The scoring section leaves tens of MiB of detector caches behind;
	// reclaim them so GC background work from one section cannot skew
	// the next section's timings.
	runtime.GC()
	for _, d := range benchDeployments() {
		model, err := deploy.New(d.cfg)
		if err != nil {
			log.Fatalf("ladbench: %v", err)
		}
		cfg := core.TrainConfig{Trials: trials, Percentile: 99, Seed: 41, KeepInField: true}
		train := benchMedian(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Train(model, core.DiffMetric{}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})

		// Steady-state single localization on a per-worker Session (the
		// training loop's shape).
		r := rng.New(43)
		group, la := model.SampleLocation(r)
		for !model.Field().Contains(la) {
			group, la = model.SampleLocation(r)
		}
		obs := model.SampleObservation(la, group, r)
		sess := localize.NewBeaconlessModel(model).NewSession()
		if _, err := sess.BindLocalize(obs); err != nil {
			log.Fatalf("ladbench: %s localize: %v", d.name, err)
		}
		loc := benchMedian(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sess.BindLocalize(obs); err != nil {
					b.Fatal(err)
				}
			}
		})
		if a := loc.AllocsPerOp(); a != 0 {
			log.Fatalf("ladbench: %s: steady-state localization allocates %d/op, want 0", d.name, a)
		}

		for _, tr := range []struct {
			kind string
			res  testing.BenchmarkResult
		}{
			{"train", train},
			{"localize", loc},
		} {
			out := trainResult{
				Name:        fmt.Sprintf("%s/%s/engine", d.name, tr.kind),
				Deployment:  d.name,
				Groups:      model.NumGroups(),
				Kind:        tr.kind,
				Path:        "engine",
				Iterations:  tr.res.N,
				NsPerOp:     float64(tr.res.NsPerOp()),
				BytesPerOp:  tr.res.AllocedBytesPerOp(),
				AllocsPerOp: tr.res.AllocsPerOp(),
				SimEpoch:    1,
			}
			if tr.kind == "train" {
				out.TrialsPerSec = float64(trials) / (float64(tr.res.NsPerOp()) / 1e9)
			}
			rep.Training = append(rep.Training, out)
		}
	}
}

// simEpochSection measures simulation epoch 2 against epoch 1 at the
// paper deployment — same binary, same seed, same trial count, so the
// recorded ratio is the within-run throughput factor the epoch-2 path
// (table-driven binomial sampler + fused full-poll probe kernel) buys,
// with no runner drift in either direction. Training runs single-worker:
// thresholds are worker-count-invariant, and on the 2-core CI class a
// 2-worker run measures scheduler contention as much as the engine —
// pinning one worker isolates the per-trial cost the epoch changes.
//
// Epoch 2 is distribution-level equivalent, not bit-identical — which
// is exactly why gates come before timing:
//
//   - the epoch-2 threshold must land within 1.5× the training samples'
//     98.5–99.5 percentile spread of the epoch-1 threshold. The spread
//     is the resolution at which a τ = 99 cut is even defined; a
//     threshold outside it is a distribution shift, not sampler noise
//     (the cross-epoch KS and detection-rate tests in internal/core
//     enforce the stronger distributional contract).
//   - steady-state epoch-2 localization must report zero allocs/op —
//     the same bar every other localization hot path in this file
//     holds.
//
// A violation is a hard failure: a fast wrong answer is not a benchmark
// result.
func simEpochSection(rep *report, trials int) {
	runtime.GC()
	model, err := deploy.New(deploy.PaperConfig())
	if err != nil {
		log.Fatalf("ladbench: %v", err)
	}
	cfg1 := core.TrainConfig{Trials: trials, Percentile: 99, Seed: 41, KeepInField: true, Workers: 1}
	cfg2 := cfg1
	cfg2.SimEpoch = 2

	// Threshold-tolerance gate.
	d1, s1, err := core.Train(model, core.DiffMetric{}, cfg1)
	if err != nil {
		log.Fatalf("ladbench: epoch-1 train: %v", err)
	}
	d2, s2, err := core.Train(model, core.DiffMetric{}, cfg2)
	if err != nil {
		log.Fatalf("ladbench: epoch-2 train: %v", err)
	}
	spread := math.Max(
		core.ThresholdFromScores(s1, 99.5)-core.ThresholdFromScores(s1, 98.5),
		core.ThresholdFromScores(s2, 99.5)-core.ThresholdFromScores(s2, 98.5))
	if diff := math.Abs(d1.Threshold() - d2.Threshold()); diff > 1.5*spread {
		log.Fatalf("ladbench: epoch-2 threshold %v vs epoch-1 %v: |Δ| = %v exceeds tolerance %v — refusing to time a wrong answer",
			d2.Threshold(), d1.Threshold(), diff, 1.5*spread)
	}

	// Steady-state localization under each epoch, allocation gate on the
	// epoch-2 kernel.
	mle1 := localize.NewBeaconlessModel(model)
	mle2 := localize.NewBeaconlessModel(model)
	mle2.SetSimEpoch(2)
	r := rng.New(43)
	group, la := model.SampleLocation(r)
	for !model.Field().Contains(la) {
		group, la = model.SampleLocation(r)
	}
	obs := model.SampleObservation(la, group, r)
	sess1, sess2 := mle1.NewSession(), mle2.NewSession()
	if _, err := sess1.BindLocalize(obs); err != nil {
		log.Fatalf("ladbench: epoch-1 localize: %v", err)
	}
	if _, err := sess2.BindLocalize(obs); err != nil {
		log.Fatalf("ladbench: epoch-2 localize: %v", err)
	}
	loc1 := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sess1.BindLocalize(obs); err != nil {
				b.Fatal(err)
			}
		}
	})
	loc2 := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sess2.BindLocalize(obs); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a := loc2.AllocsPerOp(); a != 0 {
		log.Fatalf("ladbench: epoch-2 steady-state localization allocates %d/op, want 0", a)
	}

	// Training timing, both epochs.
	train1 := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Train(model, core.DiffMetric{}, cfg1); err != nil {
				b.Fatal(err)
			}
		}
	})
	train2 := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Train(model, core.DiffMetric{}, cfg2); err != nil {
				b.Fatal(err)
			}
		}
	})

	groups := model.NumGroups()
	for _, tr := range []struct {
		kind  string
		epoch int
		res   testing.BenchmarkResult
	}{
		{"train", 1, train1},
		{"train", 2, train2},
		{"localize", 1, loc1},
		{"localize", 2, loc2},
	} {
		out := trainResult{
			Name:        fmt.Sprintf("paper100/sim_epoch/%s/epoch%d", tr.kind, tr.epoch),
			Deployment:  "paper100",
			Groups:      groups,
			Kind:        tr.kind,
			Path:        fmt.Sprintf("epoch%d", tr.epoch),
			Iterations:  tr.res.N,
			NsPerOp:     float64(tr.res.NsPerOp()),
			BytesPerOp:  tr.res.AllocedBytesPerOp(),
			AllocsPerOp: tr.res.AllocsPerOp(),
			SimEpoch:    tr.epoch,
		}
		if tr.kind == "train" {
			out.TrialsPerSec = float64(trials) / (float64(tr.res.NsPerOp()) / 1e9)
		}
		rep.SimEpochRows = append(rep.SimEpochRows, out)
	}
	rep.SpeedupSimEpoch["paper100"] = float64(train1.NsPerOp()) / float64(train2.NsPerOp())
}

// snapshotSection measures the durability layer on the paper
// deployment. Three rows:
//
//   - encode: Snapshot.AppendBinary into a reused buffer — what the
//     pool's async persist goroutine pays per save.
//   - decode: Snapshot.UnmarshalBinary into a reused receiver — the
//     integrity-checked parse that runs on every adoption; gated to
//     zero allocs/op so a booting daemon's cost is bounded by parsing,
//     not garbage.
//   - adopt: store Get + decode + RestoreDetector against a real FS
//     store — the per-detector restart latency a daemon with -store-dir
//     pays instead of a retraining run (compare trials_per_sec in the
//     training section for the alternative).
//
// Gates come before timing: the encoded snapshot must decode and
// re-encode bit-identically, and the restored detector must carry the
// trained threshold. A fast wrong answer is not a benchmark result.
func snapshotSection(rep *report, model *deploy.Model, trials int) {
	runtime.GC()
	cfg := core.TrainConfig{Trials: trials, Percentile: 99, Seed: 41, KeepInField: true}
	det, scores, err := core.Train(model, core.DiffMetric{}, cfg)
	if err != nil {
		log.Fatalf("ladbench: snapshot train: %v", err)
	}
	sort.Float64s(scores)
	snap := det.Snapshot()
	snap.SpecKey = snap.DeploymentHash
	snap.Trials = cfg.Trials
	snap.SimEpoch = 1
	snap.TrainPercentile = cfg.Percentile
	snap.Seed = cfg.Seed
	snap.KeepInField = cfg.KeepInField
	snap.Percentile = cfg.Percentile
	snap.BenignSample = scores
	if err := snap.Validate(); err != nil {
		log.Fatalf("ladbench: snapshot invalid before timing: %v", err)
	}
	data := snap.Encode()

	// Canonical-form and fidelity gates.
	back, err := core.DecodeSnapshot(data)
	if err != nil {
		log.Fatalf("ladbench: snapshot decode: %v", err)
	}
	if re := back.Encode(); !bytes.Equal(re, data) {
		log.Fatalf("ladbench: snapshot does not re-encode bit-identically (%d vs %d bytes)", len(re), len(data))
	}
	restored, err := core.RestoreDetector(back)
	if err != nil {
		log.Fatalf("ladbench: snapshot restore: %v", err)
	}
	if restored.Threshold() != det.Threshold() {
		log.Fatalf("ladbench: restored threshold %v != trained %v — refusing to time a wrong answer",
			restored.Threshold(), det.Threshold())
	}

	buf := make([]byte, 0, len(data))
	encB := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = snap.AppendBinary(buf[:0])
		}
	})
	var dst core.Snapshot
	if err := dst.UnmarshalBinary(data); err != nil { // warm the reused receiver's capacity
		log.Fatalf("ladbench: snapshot decode: %v", err)
	}
	decB := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dst.UnmarshalBinary(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Allocation gates: persistence must never add GC pressure to the
	// serving process, and adoption cost must be parse-bound.
	if a := encB.AllocsPerOp(); a != 0 {
		log.Fatalf("ladbench: snapshot encode allocates %d/op, want 0", a)
	}
	if a := decB.AllocsPerOp(); a != 0 {
		log.Fatalf("ladbench: snapshot decode allocates %d/op, want 0", a)
	}

	dir, err := os.MkdirTemp("", "ladbench-store-*")
	if err != nil {
		log.Fatalf("ladbench: %v", err)
	}
	defer os.RemoveAll(dir)
	fs, err := store.OpenFS(dir)
	if err != nil {
		log.Fatalf("ladbench: %v", err)
	}
	const id = "paper-bench"
	if err := fs.Put(id, data); err != nil {
		log.Fatalf("ladbench: %v", err)
	}
	adoptB := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raw, err := fs.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			s, err := core.DecodeSnapshot(raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.RestoreDetector(s); err != nil {
				b.Fatal(err)
			}
		}
	})

	groups := model.NumGroups()
	for _, tr := range []struct {
		path string
		res  testing.BenchmarkResult
	}{
		{"encode", encB},
		{"decode", decB},
		{"adopt", adoptB},
	} {
		rep.Snapshot = append(rep.Snapshot, trainResult{
			Name:        "paper/snapshot/" + tr.path,
			Deployment:  "paper",
			Groups:      groups,
			Kind:        "snapshot",
			Path:        tr.path,
			Iterations:  tr.res.N,
			NsPerOp:     float64(tr.res.NsPerOp()),
			BytesPerOp:  tr.res.AllocedBytesPerOp(),
			AllocsPerOp: tr.res.AllocsPerOp(),
			SimEpoch:    1,
		})
	}
	fmt.Fprintf(os.Stderr, "ladbench: snapshot (%d bytes): encode %d ns/op, decode %d ns/op, adopt-from-disk %d ns/op\n",
		len(data), encB.NsPerOp(), decB.NsPerOp(), adoptB.NsPerOp())
}

// schedulerSection measures the fair-share scheduler's checkpoint seam
// on the paper deployment. Four rows:
//
//   - ckpt_encode: TrainCheckpoint.AppendBinary into a reused buffer —
//     what a training flight pays after every non-final batch to stay
//     resumable. Gated to zero allocs/op: the save runs on the worker
//     goroutine, between batches, and must not feed the GC.
//   - ckpt_decode: UnmarshalBinary into a reused receiver — the strict
//     parse a restarted daemon runs per left-behind checkpoint. Same
//     zero-alloc gate.
//   - train_scratch: a full training run from trial zero, batch by
//     batch through the TrainRun seam — the price of NOT having a
//     checkpoint.
//   - train_resume: decode + ResumeTrainRun + the remaining 20% of
//     trials + Finish, from an 80%-progress checkpoint — the price a
//     restarted daemon actually pays.
//
// Before timing, the resumed threshold and every benign score are gated
// bit-identical to the scratch run's: a resume that lands anywhere else
// is a correctness bug, not a benchmark result.
func schedulerSection(rep *report, model *deploy.Model, trials int) {
	runtime.GC()
	cfg := core.TrainConfig{Trials: trials, Percentile: 99, Seed: 43, KeepInField: true, SimEpoch: 1}
	metric := core.ProbMetric{}
	const batch = 100

	runAll := func(run *core.TrainRun) (*core.Detector, []float64) {
		for !run.Done() {
			if _, err := run.RunBatch(batch); err != nil {
				log.Fatalf("ladbench: scheduler batch: %v", err)
			}
		}
		det, scores, err := run.Finish()
		if err != nil {
			log.Fatalf("ladbench: scheduler finish: %v", err)
		}
		return det, scores
	}

	scratchRun, err := core.NewTrainRun(model, metric, cfg)
	if err != nil {
		log.Fatalf("ladbench: scheduler train: %v", err)
	}
	refDet, refScores := runAll(scratchRun)

	// The checkpoint fixture: the same training killed at 80%.
	partial, err := core.NewTrainRun(model, metric, cfg)
	if err != nil {
		log.Fatalf("ladbench: scheduler train: %v", err)
	}
	cut := trials * 4 / 5
	for partial.TrialsDone() < cut {
		if _, err := partial.RunBatch(cut - partial.TrialsDone()); err != nil {
			log.Fatalf("ladbench: scheduler batch: %v", err)
		}
	}
	if partial.TrialsDone() != cut {
		log.Fatalf("ladbench: checkpoint fixture at %d trials, want %d", partial.TrialsDone(), cut)
	}
	ck := core.TrainCheckpoint{SpecKey: "ladbench-sched", DeploymentHash: model.Config().Hash()}
	partial.CheckpointInto(&ck)
	data := ck.Encode()

	// Resume-fidelity gate: decode from wire bytes, finish the run, and
	// demand the scratch answer to the bit.
	restored, err := core.DecodeTrainCheckpoint(data)
	if err != nil {
		log.Fatalf("ladbench: scheduler checkpoint decode: %v", err)
	}
	resumed, err := core.ResumeTrainRun(model, metric, cfg, restored)
	if err != nil {
		log.Fatalf("ladbench: scheduler resume: %v", err)
	}
	gotDet, gotScores := runAll(resumed)
	if gotDet.Threshold() != refDet.Threshold() {
		log.Fatalf("ladbench: resumed threshold %v != scratch %v — refusing to time a wrong answer",
			gotDet.Threshold(), refDet.Threshold())
	}
	for i := range refScores {
		if gotScores[i] != refScores[i] {
			log.Fatalf("ladbench: resumed score[%d] = %v != scratch %v", i, gotScores[i], refScores[i])
		}
	}

	buf := make([]byte, 0, len(data))
	encB := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = ck.AppendBinary(buf[:0])
		}
	})
	var dst core.TrainCheckpoint
	if err := dst.UnmarshalBinary(data); err != nil { // warm the reused receiver's capacity
		log.Fatalf("ladbench: scheduler checkpoint decode: %v", err)
	}
	decB := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dst.UnmarshalBinary(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a := encB.AllocsPerOp(); a != 0 {
		log.Fatalf("ladbench: checkpoint encode allocates %d/op, want 0", a)
	}
	if a := decB.AllocsPerOp(); a != 0 {
		log.Fatalf("ladbench: checkpoint decode allocates %d/op, want 0", a)
	}

	scratchB := benchMedian(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run, err := core.NewTrainRun(model, metric, cfg)
			if err != nil {
				log.Fatalf("ladbench: scheduler scratch bench: %v", err)
			}
			runAll(run)
		}
	})
	remaining := trials - cut
	resumeB := benchMedian(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			restored, err := core.DecodeTrainCheckpoint(data)
			if err != nil {
				log.Fatalf("ladbench: scheduler resume bench decode: %v", err)
			}
			run, err := core.ResumeTrainRun(model, metric, cfg, restored)
			if err != nil {
				log.Fatalf("ladbench: scheduler resume bench: %v", err)
			}
			if before := run.TrialsDone(); before != cut {
				log.Fatalf("ladbench: resumed run starts at %d trials, want %d", before, cut)
			}
			runAll(run)
			if run.TrialsDone() != cut+remaining {
				log.Fatalf("ladbench: resumed run finished at %d trials, want %d", run.TrialsDone(), trials)
			}
		}
	})
	rep.SpeedupResume["paper"] = float64(scratchB.NsPerOp()) / float64(resumeB.NsPerOp())

	groups := model.NumGroups()
	for _, tr := range []struct {
		path string
		res  testing.BenchmarkResult
	}{
		{"ckpt_encode", encB},
		{"ckpt_decode", decB},
		{"train_scratch", scratchB},
		{"train_resume", resumeB},
	} {
		rep.Scheduler = append(rep.Scheduler, trainResult{
			Name:        "paper/sched/" + tr.path,
			Deployment:  "paper",
			Groups:      groups,
			Kind:        "sched",
			Path:        tr.path,
			Iterations:  tr.res.N,
			NsPerOp:     float64(tr.res.NsPerOp()),
			BytesPerOp:  tr.res.AllocedBytesPerOp(),
			AllocsPerOp: tr.res.AllocsPerOp(),
			SimEpoch:    1,
		})
	}
	fmt.Fprintf(os.Stderr, "ladbench: scheduler checkpoint (%d bytes): encode %d ns/op, decode %d ns/op; resume from 80%%: %.2fx over scratch\n",
		len(data), encB.NsPerOp(), decB.NsPerOp(), rep.SpeedupResume["paper"])
}

// compareBaseline prints, for every result name present in both the
// baseline snapshot and this run, the old/new ns_per_op ratio — the CI
// job runs it against the committed BENCH_PR*.json so the log shows
// drift against the last recorded state. With maxRegressPct > 0 it
// turns into a gate: any shared benchmark whose ns/op exceeds the
// baseline by more than that percentage fails the run.
//
// When both snapshots carry reference_ns_per_op, this run's numbers are
// first divided by the reference ratio (this runner's reference over
// the baseline's): a uniformly slower or faster machine moves the
// reference by the same factor as every real benchmark, so the
// calibrated comparison isolates changes to the CODE from changes of
// runner. The bound then only needs headroom for per-benchmark noise,
// not whole-machine variance; it exists to catch step-change
// regressions, not jitter.
func compareBaseline(path string, rep report, maxRegressPct float64) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ladbench: baseline %s unreadable: %v\n", path, err)
		return
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "ladbench: baseline %s unparsable: %v\n", path, err)
		return
	}
	ratio := 1.0
	if base.ReferenceNsPerOp > 0 && rep.ReferenceNsPerOp > 0 {
		ratio = rep.ReferenceNsPerOp / base.ReferenceNsPerOp
		fmt.Fprintf(os.Stderr, "ladbench: runner calibration: reference %.0f -> %.0f ns/op; this runner is %.2fx the baseline's, comparisons normalized\n",
			base.ReferenceNsPerOp, rep.ReferenceNsPerOp, ratio)
	} else {
		fmt.Fprintf(os.Stderr, "ladbench: baseline %s has no reference benchmark (schema %d); comparing absolute ns/op\n",
			path, base.Schema)
	}
	old := map[string]float64{}
	for _, r := range base.Results {
		old[r.Name] = r.NsPerOp
	}
	for _, r := range base.Training {
		old[r.Name] = r.NsPerOp
	}
	for _, r := range base.Snapshot {
		old[r.Name] = r.NsPerOp
	}
	for _, r := range base.SimEpochRows {
		old[r.Name] = r.NsPerOp
	}
	for _, r := range base.Scheduler {
		old[r.Name] = r.NsPerOp
	}
	var regressions []string
	report := func(name string, ns float64) {
		prev, ok := old[name]
		if !ok || ns <= 0 {
			return
		}
		norm := ns / ratio
		fmt.Fprintf(os.Stderr, "ladbench: vs %s: %-28s %8.0f -> %8.0f ns/op calibrated (%.2fx)\n",
			path, name, prev, norm, prev/norm)
		if maxRegressPct > 0 && norm > prev*(1+maxRegressPct/100) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %0.f -> %0.f ns/op calibrated (+%.1f%%, bound %.0f%%)",
					name, prev, norm, (norm/prev-1)*100, maxRegressPct))
		}
	}
	for _, r := range rep.Results {
		report(r.Name, r.NsPerOp)
	}
	for _, r := range rep.Training {
		report(r.Name, r.NsPerOp)
	}
	for _, r := range rep.Snapshot {
		report(r.Name, r.NsPerOp)
	}
	for _, r := range rep.SimEpochRows {
		report(r.Name, r.NsPerOp)
	}
	for _, r := range rep.Scheduler {
		report(r.Name, r.NsPerOp)
	}
	if len(regressions) > 0 {
		for _, s := range regressions {
			fmt.Fprintf(os.Stderr, "ladbench: REGRESSION %s\n", s)
		}
		log.Fatalf("ladbench: %d benchmark(s) regressed past -max-regress %.0f%% vs %s",
			len(regressions), maxRegressPct, path)
	}
}

func toResult(metric, path string, batch int, r testing.BenchmarkResult) result {
	perOp := float64(r.NsPerOp())
	return result{
		Name:        fmt.Sprintf("%s/%s", metric, path),
		Metric:      metric,
		Path:        path,
		Iterations:  r.N,
		NsPerOp:     perOp,
		NsPerItem:   perOp / float64(batch),
		ItemsPerSec: 1e9 / (perOp / float64(batch)),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// sampleItems mirrors the serving workload: batch items spread over a
// handful of in-field claimed locations, with benign observations.
func sampleItems(model *deploy.Model, nItems, nLocs int) []core.BatchItem {
	r := rng.New(43)
	locs := make([]geom.Point, nLocs)
	groups := make([]int, nLocs)
	for i := range locs {
		for {
			g, p := model.SampleLocation(r)
			if model.Field().Contains(p) {
				groups[i], locs[i] = g, p
				break
			}
		}
	}
	items := make([]core.BatchItem, nItems)
	for i := range items {
		li := i % nLocs
		items[i] = core.BatchItem{
			Observation: model.SampleObservation(locs[li], groups[li], r),
			Location:    locs[li],
		}
	}
	return items
}

// assertIdentical refuses to time paths that disagree: every benchmarked
// configuration must produce verdicts bit-identical to fresh Check.
func assertIdentical(metric string, fresh, pr1 *core.Detector, items []core.BatchItem) {
	want := make([]core.Verdict, len(items))
	for i, it := range items {
		want[i] = fresh.Check(it.Observation, it.Location)
	}
	for round := 0; round < 2; round++ { // round 2 hits armed PMF tables
		for name, got := range map[string][]core.Verdict{
			"batch":     fresh.CheckBatch(items),
			"batch_pr1": pr1.CheckBatch(items),
		} {
			for i := range got {
				if got[i] != want[i] {
					log.Fatalf("ladbench: %s/%s round %d item %d: %+v != fresh Check %+v",
						metric, name, round, i, got[i], want[i])
				}
			}
		}
	}
}
