// Command serving walks the ladd v2 resource API end to end through the
// typed Go client (repro/client): register a detector spec, poll the
// async training job, score observations, correct an alarmed location,
// and re-cut the operating point — then asserts every headline claim and
// exits nonzero if one no longer holds, so the demo cannot silently rot:
//
//  1. registration returns immediately (no blocking on the training run);
//  2. the single check verdict is bit-identical to the check/batch
//     verdict for the same item;
//  3. /correct recovers a location inside the field from the observation;
//  4. /rethreshold moves the threshold WITHOUT a retrain (the daemon's
//     training counter does not move);
//  5. the daemon's metrics counters moved (detectors-by-state gauge, job
//     counters, corrections, rethresholds, scored observations).
//
// By default it boots an in-process server; point it at a live daemon
// with -url (that is how CI's e2e smoke job uses it):
//
//	go run ./examples/serving -quick
//	go run ./examples/serving -url http://localhost:8080 -token-file tok.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro"
	"repro/client"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/serve"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "tiny deployment and trial count (CI smoke)")
		url       = flag.String("url", "", "drive a live ladd daemon at this base URL instead of an in-process server")
		tokenFile = flag.String("token-file", "", "bearer token file for the daemon's mutating endpoints")
		trials    = flag.Int("trials", 2000, "training trials for the registered spec")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("serving: ")

	// The spec this example registers. A fixed non-default seed keeps it
	// distinct from whatever the daemon warmed up, so the walkthrough
	// always exercises a fresh resource.
	cspec := client.PaperSpec().WithTrials(*trials).WithSeed(20260727)
	ddeploy := deploy.PaperConfig()
	if *quick {
		cspec.Deployment = client.Deployment{
			Field:   client.Rect{Min: client.RectCorner{X: 0, Y: 0}, Max: client.RectCorner{X: 300, Y: 300}},
			GroupsX: 3, GroupsY: 3, GroupSize: 40,
			Sigma: 50, Range: 50, Layout: client.LayoutGrid,
		}
		cspec = cspec.WithTrials(200)
		ddeploy.Field = geom.NewRect(geom.Pt(0, 0), geom.Pt(300, 300))
		ddeploy.GroupsX, ddeploy.GroupsY = 3, 3
		ddeploy.GroupSize = 40
	}

	base := *url
	token := ""
	if *tokenFile != "" {
		raw, err := os.ReadFile(*tokenFile)
		if err != nil {
			log.Fatalf("reading -token-file: %v", err)
		}
		token = strings.TrimSpace(string(raw))
	}
	if base == "" {
		// In-process daemon: same serve.Server cmd/ladd mounts.
		sspec := serve.DetectorSpec{
			Deployment: ddeploy,
			Metric:     cspec.Metric,
			Train: serve.TrainSpec{
				Trials:      cspec.Train.Trials,
				Percentile:  cspec.Train.Percentile,
				Seed:        1, // warmup spec; the example registers its own
				KeepInField: true,
			},
		}
		srv, err := serve.NewServer(serve.ServerConfig{Default: sspec, APIToken: token}, nil)
		if err != nil {
			log.Fatalf("in-process server: %v", err)
		}
		if err := srv.Warmup(); err != nil {
			log.Fatalf("warmup: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		log.Printf("in-process daemon at %s", base)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	opts := []client.Option{client.WithBackoff(10*time.Millisecond, 2*time.Second)}
	if token != "" {
		opts = append(opts, client.WithToken(token))
	}
	c := client.New(base, opts...)
	if err := c.WaitHealthy(ctx); err != nil {
		log.Fatalf("daemon not healthy: %v", err)
	}
	before, err := c.MetricsText(ctx)
	if err != nil {
		log.Fatalf("metrics scrape: %v", err)
	}
	trainsBefore, _ := client.MetricValue(before, "ladd_train_seconds_count", "")

	// 1 — register: returns immediately with the job's state.
	start := time.Now()
	reg, err := c.Register(ctx, cspec)
	if err != nil {
		log.Fatalf("register: %v", err)
	}
	regLatency := time.Since(start)
	log.Printf("registered %s: state=%s after %s", reg.ID, reg.State, regLatency.Round(time.Millisecond))
	if regLatency > 2*time.Second {
		log.Fatalf("CLAIM FAILED: registration blocked for %s; the v2 API must answer without waiting for training", regLatency)
	}

	// 2 — poll the async job until ready.
	det, err := c.WaitReady(ctx, reg.ID)
	if err != nil {
		log.Fatalf("wait ready: %v", err)
	}
	log.Printf("ready: threshold %.4f (percentile %g, %d benign scores retained, trained in %.2fs)",
		*det.Threshold, det.Percentile, det.Train.BenignScores, det.Train.Seconds)

	// 3 — score a benign observation; check/batch must agree bit for bit.
	model, err := lad.NewModel(ddeploy)
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	r := rng.New(7)
	group, loc := model.SampleLocation(r)
	for !model.Field().Contains(loc) {
		group, loc = model.SampleLocation(r)
	}
	obs := model.SampleObservation(loc, group, r)
	claim := client.Point{X: loc.X, Y: loc.Y}
	v, err := c.Check(ctx, det.ID, obs, claim)
	if err != nil {
		log.Fatalf("check: %v", err)
	}
	batch, err := c.CheckBatch(ctx, det.ID, []client.Item{{Observation: obs, Location: claim}})
	if err != nil {
		log.Fatalf("check/batch: %v", err)
	}
	if len(batch) != 1 || batch[0] != v {
		log.Fatalf("CLAIM FAILED: check/batch verdicts %+v != single check verdict %+v for the same item", batch, v)
	}
	log.Printf("checked (%.1f, %.1f): score %.4f vs threshold %.4f, alarm=%v — check/batch bit-identical",
		loc.X, loc.Y, v.Score, v.Threshold, v.Alarm)

	// 4 — correct: re-estimate the location from the observation itself,
	// as one would after an alarm on a suspect localization.
	fix, err := c.Correct(ctx, det.ID, obs)
	if err != nil {
		log.Fatalf("correct: %v", err)
	}
	// The MLE is not clamped to the field (edge victims can resolve just
	// outside it); the claim is accuracy: the re-estimate lands within a
	// couple of cell widths of the true location on a benign observation.
	cell := model.Field().Width() / float64(ddeploy.GroupsX)
	errDist := lad.Pt(fix.Location.X, fix.Location.Y).Dist(loc)
	if errDist > 2*cell {
		log.Fatalf("CLAIM FAILED: corrected location (%.1f, %.1f) is %.1f m from the true location (bound %.0f m)",
			fix.Location.X, fix.Location.Y, errDist, 2*cell)
	}
	log.Printf("corrected to (%.1f, %.1f) — %.1f m from the true location", fix.Location.X, fix.Location.Y, errDist)

	// 5 — rethreshold: re-cut the operating point from the retained
	// benign scores; no retraining may happen.
	re, err := c.Rethreshold(ctx, det.ID, 95)
	if err != nil {
		log.Fatalf("rethreshold: %v", err)
	}
	if *re.Threshold >= *det.Threshold {
		log.Fatalf("CLAIM FAILED: 95th-percentile threshold %.4f not below the 99th's %.4f", *re.Threshold, *det.Threshold)
	}
	log.Printf("rethresholded to percentile 95: threshold %.4f → %.4f", *det.Threshold, *re.Threshold)

	// 6 — the daemon's metrics must have recorded all of it.
	after, err := c.MetricsText(ctx)
	if err != nil {
		log.Fatalf("metrics scrape: %v", err)
	}
	trainsAfter, _ := client.MetricValue(after, "ladd_train_seconds_count", "")
	if trainsAfter != trainsBefore+1 {
		log.Fatalf("CLAIM FAILED: training count moved %g → %g; want exactly +1 (the registration) and none from rethreshold",
			trainsBefore, trainsAfter)
	}
	wantMetrics := []struct {
		name, labels string
		min          float64
	}{
		{"ladd_detectors", `state="ready"`, 1},
		{"ladd_train_jobs_started_total", "", 1},
		{"ladd_train_jobs_completed_total", `outcome="ok"`, 1},
		{"ladd_observations_scored_total", "", 1},
		{"ladd_corrections_total", "", 1},
		{"ladd_rethresholds_total", "", 1},
	}
	for _, mm := range wantMetrics {
		v, ok := client.MetricValue(after, mm.name, mm.labels)
		if !ok || v < mm.min {
			log.Fatalf("CLAIM FAILED: metric %s{%s} = %g (found=%v), want >= %g", mm.name, mm.labels, v, ok, mm.min)
		}
	}
	log.Printf("metrics moved: detectors ready, job counters, corrections, rethresholds all recorded")

	fmt.Println("serving example OK")
}
