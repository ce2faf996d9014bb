// Command ladd is the LAD detection daemon: it trains (or reuses) a
// detector per deployment configuration and serves anomaly checks over
// HTTP/JSON.
//
// Endpoints:
//
//	POST   /v2/detectors                  register a detector resource (async training)
//	GET    /v2/detectors                  list resources and lifecycle states
//	GET    /v2/detectors/{id}             status: state, threshold, train stats
//	DELETE /v2/detectors/{id}             evict a resource
//	POST   /v2/detectors/{id}/check       score one observation/location pair
//	POST   /v2/detectors/{id}/check/batch score many pairs in one request
//	POST   /v2/detectors/{id}/correct     re-estimate a location after an alarm
//	POST   /v2/detectors/{id}/rethreshold re-cut the percentile without retraining
//	GET    /healthz                       readiness (503 until the default detector is trained)
//	GET    /metrics                       Prometheus text metrics
//
// Usage:
//
//	ladd                                  # paper deployment, diff metric
//	ladd -addr :9090 -metric probability -trials 8000
//	ladd -spec deployment.json            # full DetectorSpec from a file
//	ladd -api-token-file token.txt        # gate register/delete/rethreshold
//	ladd -store-dir /var/lib/ladd         # durable detectors: persist on ready, adopt on restart
//	ladd -warmup-only [-spec f.json] -store-dir D  # provision: train or adopt, write one snapshot, print the threshold
//
// The default detector is a resource like any other: its id is logged
// at warmup and listed by GET /v2/detectors. Checks against a
// still-training resource answer 202 + Retry-After. Resources are keyed
// by a canonical config hash, so clients that agree on a deployment
// share one training run — and one set of verdicts. The typed Go client
// in repro/client speaks the v2 lifecycle end to end.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/deploy"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		specFile    = flag.String("spec", "", "JSON file with the default DetectorSpec (its fields overlay the flags below; unknown keys are rejected)")
		metric      = flag.String("metric", "diff", "default metric: diff, add-all, probability")
		trials      = flag.Int("trials", 4000, "default training trials")
		percentile  = flag.Float64("percentile", 99, "default training percentile τ")
		seed        = flag.Uint64("seed", 1, "default training seed")
		keepInField = flag.Bool("keep-in-field", true, "train on in-field victims only")
		simEpoch    = flag.Int("sim-epoch", 0, "default training simulation epoch: 0 or 2 = table-sampler path (distribution-level equivalent; the default), 1 = bit-identical reference (keeps the id the default spec had while epoch 1 was the default)")
		maxBatch    = flag.Int("max-batch", serve.DefaultMaxBatch, "max items per batch request")
		trainConc   = flag.Int("train-concurrency", serve.DefaultTrainConcurrency, "max training batches the scheduler runs at once: max detector trainings in flight (a batch gets the training budget divided by the jobs that can run at once; the budget is GOMAXPROCS, one core fewer while checks are served, so a lone job gets every core while none are)")
		schedBatch  = flag.Int("sched-batch-trials", 0, "trials a training job runs per scheduler turn — the fairness and checkpoint granularity (0 = scheduler default)")
		expBudget   = flag.Int64("exp-cache-budget", 0, "pool-wide expectation-cache admission budget in bytes, shared across all detectors (0 = unlimited)")
		tokenFile   = flag.String("api-token-file", "", "file holding the bearer token that gates mutating v2 endpoints (register/delete/rethreshold); empty leaves them open")
		storeDir    = flag.String("store-dir", "", "directory for durable detector snapshots; ready detectors are persisted there and adopted on restart instead of retrained (empty disables persistence)")
		warmupOnly  = flag.Bool("warmup-only", false, "train the default detector, or adopt it from -store-dir, then persist it there, print its threshold and exit (nonzero when -store-dir does not hold its complete snapshot)")
	)
	flag.Parse()

	apiToken := ""
	if *tokenFile != "" {
		raw, err := os.ReadFile(*tokenFile)
		if err != nil {
			log.Fatalf("ladd: reading -api-token-file: %v", err)
		}
		apiToken = strings.TrimSpace(string(raw))
		if apiToken == "" {
			log.Fatalf("ladd: -api-token-file %s is empty", *tokenFile)
		}
	}

	spec := serve.DetectorSpec{
		Deployment: deploy.PaperConfig(),
		Metric:     *metric,
		Train: serve.TrainSpec{
			Trials:      *trials,
			Percentile:  *percentile,
			Seed:        *seed,
			KeepInField: *keepInField,
			SimEpoch:    *simEpoch,
		},
	}
	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			log.Fatalf("ladd: reading -spec: %v", err)
		}
		dec := json.NewDecoder(f)
		// Strict: a typo'd key would otherwise be dropped silently and the
		// daemon would serve thresholds from a spec the operator never wrote.
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			log.Fatalf("ladd: parsing -spec: %v", err)
		}
		f.Close()
	}

	srv, err := serve.NewServer(serve.ServerConfig{
		Default:                spec,
		APIToken:               apiToken,
		MaxBatch:               *maxBatch,
		MaxConcurrentTrainings: *trainConc,
		SchedBatchTrials:       *schedBatch,
		ExpCacheBudgetBytes:    *expBudget,
	}, nil)
	if err != nil {
		log.Fatalf("ladd: %v", err)
	}

	if *storeDir != "" {
		snapStore, err := store.OpenFS(*storeDir)
		if err != nil {
			log.Fatalf("ladd: opening -store-dir: %v", err)
		}
		srv.Pool().SetStore(snapStore)
		start := time.Now()
		stats, err := srv.Pool().AdoptSnapshots()
		if err != nil {
			// The store is unusable for listing; keep booting — persistence
			// of new trainings may still work, and the daemon must not stay
			// down over a snapshot directory.
			log.Printf("ladd: snapshot adoption failed (continuing without adopted detectors): %v", err)
		} else {
			log.Printf("ladd: snapshot store %s: %s in %s", *storeDir, stats, time.Since(start).Round(time.Millisecond))
		}
	}

	// warmup returns how the default detector became ready.
	warmup := func() (string, error) {
		if st, _ := srv.Pool().Lookup(spec.ID()); st.State == serve.StateReady {
			log.Printf("ladd: default detector %s adopted from the store", spec.ID())
			return "adopted from the store", srv.Warmup()
		}
		log.Printf("ladd: training default detector %s (metric=%s trials=%d percentile=%g)",
			spec.ID(), spec.Metric, spec.Train.Trials, spec.Train.Percentile)
		start := time.Now()
		err := srv.Warmup()
		return "trained in " + time.Since(start).Round(time.Millisecond).String(), err
	}
	if *warmupOnly {
		if _, err := warmup(); err != nil {
			log.Fatalf("ladd: warmup failed: %v", err)
		}
		// The snapshot save runs in the background; exiting first would
		// leave -store-dir without the detector just trained.
		srv.Pool().WaitSaves()
		det, _, _ := srv.Pool().Detector(spec.ID())
		log.Printf("ladd: threshold %.4f", det.Threshold())
		// The snapshot is this run's artifact: a lost write exits nonzero.
		if *storeDir != "" {
			if err := srv.Pool().VerifySnapshot(spec.ID(), det.Threshold()); err != nil {
				log.Fatalf("ladd: default detector not persisted: %v", err)
			}
		}
		fmt.Printf("%g\n", det.Threshold())
		return
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("ladd: listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	// Warm up after the listener is up: /healthz answers 503 during the
	// (possibly multi-second) training run instead of refusing
	// connections, so orchestrators see "starting", not "dead".
	go func() {
		how, err := warmup()
		if err != nil {
			log.Printf("ladd: warmup failed: %v", err)
			errCh <- fmt.Errorf("warmup: %w", err)
			return
		}
		// The listener is up, so a DELETE may already have evicted it.
		if det, _, ok := srv.Pool().Detector(spec.ID()); ok {
			log.Printf("ladd: default detector %s %s; threshold %.4f — ready", spec.ID(), how, det.Threshold())
		}
	}()

	select {
	case err := <-errCh:
		log.Fatalf("ladd: serve: %v", err)
	case <-ctx.Done():
	}

	log.Print("ladd: shutting down (draining in-flight requests)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("ladd: shutdown: %v", err)
	}
	// A ready or rethreshold save may still be writing its snapshot.
	srv.Pool().WaitSaves()
	entries, hits, misses, failures := srv.Pool().Stats()
	expSize, expHits, expMisses := srv.Pool().ExpCacheStats()
	log.Printf("ladd: bye (detectors cached: %d, pool hits/misses/failures: %d/%d/%d, expectation cache: %d locations, hits/misses: %d/%d)",
		entries, hits, misses, failures, expSize, expHits, expMisses)
}
