package serve

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/rng"
	"repro/internal/store"
)

// waitSaves blocks until the pool has durably saved want snapshots
// (saves are asynchronous so trainings never block on the disk).
func waitSaves(t testing.TB, p *DetectorPool, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p.snapSaveOK.Load() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("snapshot saves stuck at %d, want %d", p.snapSaveOK.Load(), want)
}

// waitSaveErrs blocks until want saves have been abandoned.
func waitSaveErrs(t *testing.T, p *DetectorPool, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p.snapSaveErr.Load() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("abandoned saves stuck at %d, want %d", p.snapSaveErr.Load(), want)
}

// fixedVerdict scores one deterministic observation so verdicts can be
// compared bit-for-bit across restarts.
func fixedVerdict(det *core.Detector) core.Verdict {
	model := det.Model()
	r := rng.New(1234)
	group, la := model.SampleLocation(r)
	o := make([]int, model.NumGroups())
	model.SampleObservationInto(o, la, group, r)
	return det.Check(o, la)
}

func TestPersistAndAdoptRoundTrip(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()

	p1 := NewDetectorPool(0)
	p1.SetStore(fs)
	det1, err := p1.await(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p1, 1)
	v1 := fixedVerdict(det1)

	// "Restart": a fresh pool over the same store adopts the snapshot.
	p2 := NewDetectorPool(0)
	p2.SetStore(fs)
	stats, err := p2.AdoptSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != 1 || stats.Corrupt+stats.Stale+stats.Mismatch+stats.Errors+stats.Skipped != 0 {
		t.Fatalf("AdoptSnapshots = %v, want 1 clean adoption", stats)
	}
	st, ok := p2.Lookup(spec.ID())
	if !ok || st.State != StateReady {
		t.Fatalf("adopted resource = %+v (ok=%v), want StateReady immediately", st, ok)
	}
	if st.BenignScores != spec.Train.Trials {
		t.Fatalf("adopted sample size %d, want %d", st.BenignScores, spec.Train.Trials)
	}
	det2, _, ok := p2.Detector(spec.ID())
	if !ok {
		t.Fatal("adopted detector not servable")
	}
	v2 := fixedVerdict(det2)
	if v1 != v2 {
		t.Fatalf("verdict across restart = %+v, want bit-identical %+v", v2, v1)
	}
	// Zero retraining: the adopted pool never started a training flight.
	if started := p2.jobsStarted.Load(); started != 0 {
		t.Fatalf("adoption started %d training flights, want 0", started)
	}
	if count := p2.trainSeconds.Totals().Count; count != 0 {
		t.Fatalf("adoption moved the train counter to %d", count)
	}

	// The adopted benign sample supports rethresholding: both pools must
	// cut the exact same threshold from their retained samples.
	r1, err := p1.Rethreshold(spec.ID(), 90)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Rethreshold(spec.ID(), 90)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Threshold != r2.Threshold {
		t.Fatalf("rethreshold after adoption = %v, want %v", r2.Threshold, r1.Threshold)
	}
	// Both rethresholds scheduled async saves into the TempDir store;
	// drain them before the test returns or cleanup races the writers.
	waitSaves(t, p1, 2)
	waitSaves(t, p2, 1)
}

// TestWaitSavesCoversWarmupSnapshot: the post-training snapshot save is
// asynchronous and Warmup returns before it, so a process that exits
// right after Warmup (ladd -warmup-only) calls WaitSaves first. After
// it the store holds the default detector, with no polling and no
// half-written temp file. A second boot on the same store — the
// provisioning round trip — adopts that record: it starts no training
// job, reports the same threshold and leaves one record.
func TestWaitSavesCoversWarmupSnapshot(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Default: tinySpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Pool().SetStore(fs)
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	srv.Pool().WaitSaves()
	ids, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ids, tinySpec().ID()) {
		t.Fatalf("store lists %v after WaitSaves, want the default detector %s", ids, tinySpec().ID())
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temp files left after WaitSaves: %v (%v)", tmps, err)
	}
	det1, _, _ := srv.Pool().Detector(tinySpec().ID())
	if err := srv.Pool().VerifySnapshot(tinySpec().ID(), det1.Threshold()); err != nil {
		t.Fatalf("stored artifact after WaitSaves: %v", err)
	}
	if err := srv.Pool().VerifySnapshot(tinySpec().ID(), det1.Threshold()+1); err == nil {
		t.Fatal("VerifySnapshot accepted a threshold the record does not carry")
	}

	srv2, err := NewServer(ServerConfig{Default: tinySpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Pool().SetStore(fs)
	if stats, err := srv2.Pool().AdoptSnapshots(); err != nil || stats.Adopted != 1 {
		t.Fatalf("second boot adopted %+v (%v), want 1", stats, err)
	}
	if err := srv2.Warmup(); err != nil {
		t.Fatal(err)
	}
	srv2.Pool().WaitSaves()
	if started := srv2.Pool().jobsStarted.Load(); started != 0 {
		t.Fatalf("second boot started %d training jobs, want 0", started)
	}
	det2, _, _ := srv2.Pool().Detector(tinySpec().ID())
	if det2.Threshold() != det1.Threshold() {
		t.Fatalf("second boot threshold %v, want %v", det2.Threshold(), det1.Threshold())
	}
	if err := srv2.Pool().VerifySnapshot(tinySpec().ID(), det2.Threshold()); err != nil {
		t.Fatalf("adopted artifact: %v", err)
	}
	if ids, err := fs.List(); err != nil || len(ids) != 1 {
		t.Fatalf("store lists %v (%v) after the second boot, want one record", ids, err)
	}
}

// A provisioning run whose final snapshot Put fails must not pass for
// one that wrote its artifact. Training succeeds and serves from memory,
// but VerifySnapshot — ladd -warmup-only's exit check — reports the
// loss: here the store is left holding the checkpoint the run resumed
// from, and without it, no record at all.
func TestVerifySnapshotFailsWhenPutFails(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	if err := fs.Put(spec.ID(), partialCheckpoint(t, spec, 32)); err != nil {
		t.Fatal(err)
	}
	faulty := store.NewFaulty(fs)
	faulty.SetPutError(errors.New("injected: disk full"))
	srv, err := NewServer(ServerConfig{Default: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Pool().SetStore(faulty)
	if err := srv.Warmup(); err != nil {
		t.Fatalf("training failed because the store did: %v", err)
	}
	srv.Pool().WaitSaves()
	det, _, _ := srv.Pool().Detector(spec.ID())
	if err := srv.Pool().VerifySnapshot(spec.ID(), det.Threshold()); err == nil || !strings.Contains(err.Error(), "32 of 80 trials") {
		t.Fatalf("VerifySnapshot over a left-behind checkpoint = %v, want it refused", err)
	}
	// A checkpoint is refused even when its threshold field matches.
	data, err := fs.Get(spec.ID())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	ck.Threshold = det.Threshold()
	if err := fs.Put(spec.ID(), ck.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Pool().VerifySnapshot(spec.ID(), det.Threshold()); err == nil {
		t.Fatal("VerifySnapshot accepted a checkpoint carrying the trained threshold")
	}
	if err := fs.Delete(spec.ID()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Pool().VerifySnapshot(spec.ID(), det.Threshold()); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("VerifySnapshot with no record = %v, want ErrNotFound", err)
	}
}

func TestRethresholdSurvivesRestart(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	p1 := NewDetectorPool(0)
	p1.SetStore(fs)
	if _, err := p1.await(spec); err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p1, 1)
	moved, err := p1.Rethreshold(spec.ID(), 90)
	if err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p1, 2)

	p2 := NewDetectorPool(0)
	p2.SetStore(fs)
	if _, err := p2.AdoptSnapshots(); err != nil {
		t.Fatal(err)
	}
	st, ok := p2.Lookup(spec.ID())
	if !ok {
		t.Fatal("resource not adopted")
	}
	if st.Percentile != 90 || st.Threshold != moved.Threshold {
		t.Fatalf("adopted operating point (τ=%v, th=%v), want (90, %v)", st.Percentile, st.Threshold, moved.Threshold)
	}
}

func TestDeleteRemovesSnapshot(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	p := NewDetectorPool(0)
	p.SetStore(fs)
	if _, err := p.await(spec); err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p, 1)
	if !p.Delete(spec.ID()) {
		t.Fatal("Delete returned false")
	}
	if _, err := fs.Get(spec.ID()); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("snapshot after Delete: %v, want ErrNotFound", err)
	}
}

// A store that cannot write must never fail a training run: the
// detector serves from memory and the failure is counted.
func TestSaveFailureServesFromMemory(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := store.NewFaulty(fs)
	faulty.SetPutError(errors.New("injected: disk full"))
	spec := tinySpec()
	p := NewDetectorPool(0)
	p.SetStore(faulty)
	det, err := p.await(spec)
	if err != nil {
		t.Fatalf("training failed because the store did: %v", err)
	}
	waitSaveErrs(t, p, 1)
	if saves := p.snapSaveOK.Load(); saves != 0 {
		t.Fatalf("SavesOK = %d with a dead store", saves)
	}
	if errs := p.storeErrors.Load(); errs < 2 {
		t.Fatalf("StoreErrors = %d, want one per retry attempt", errs)
	}
	if faulty.Puts() < 2 {
		t.Fatalf("store saw %d puts, want capped-backoff retries", faulty.Puts())
	}
	// The resource itself is untouched by the storage failure.
	st, ok := p.Lookup(spec.ID())
	if !ok || st.State != StateReady {
		t.Fatalf("resource = %+v, want ready", st)
	}
	if v := fixedVerdict(det); v.Threshold != st.Threshold {
		t.Fatalf("verdict threshold %v, status %v", v.Threshold, st.Threshold)
	}
}

// Delete of a mid-training resource must trip the flight's cancel
// channel so the detached Monte-Carlo run aborts instead of burning
// cores to completion.
func TestDeleteCancelsTrainingFlight(t *testing.T) {
	started := make(chan struct{})
	outcome := make(chan error, 1)
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, cancel <-chan struct{}) (*core.Detector, []float64, error) {
		close(started)
		select {
		case <-cancel:
			outcome <- core.ErrTrainingCanceled
			return nil, nil, core.ErrTrainingCanceled
		case <-time.After(10 * time.Second):
			outcome <- errors.New("cancel never fired")
			return nil, nil, errors.New("cancel never fired")
		}
	})
	st, created, err := pool.Register(tinySpec())
	if err != nil || !created {
		t.Fatalf("Register = %+v, %v, %v", st, created, err)
	}
	<-started
	if !pool.Delete(st.ID) {
		t.Fatal("Delete returned false")
	}
	select {
	case err := <-outcome:
		if !errors.Is(err, core.ErrTrainingCanceled) {
			t.Fatalf("flight finished with %v, want cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("detached flight still running")
	}
	// The detached, canceled flight is invisible in the failure counters.
	if failures := pool.failures.Load(); failures != 0 {
		t.Fatalf("canceled detached flight counted as %d failures", failures)
	}
}

// TestDeleteExecutingFlightCountsCanceled: a DELETE that aborts a real
// training mid-batch is a cancellation, not a failure, in the
// scheduler's outcome counters — even though the aborted run returns
// its own error.
func TestDeleteExecutingFlightCountsCanceled(t *testing.T) {
	const trials = 200_000
	p := NewDetectorPool(0)
	p.SetSchedBatchTrials(trials) // one batch: the job executes until done
	spec := tinySpec()
	spec.Train.Trials = trials
	st, _, err := p.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.SchedStats().Executing == 0 {
		if time.Now().After(deadline) {
			t.Fatal("training never started executing")
		}
		time.Sleep(time.Millisecond)
	}
	if !p.Delete(st.ID) {
		t.Fatal("Delete returned false")
	}
	for p.SchedStats().ActiveJobs != 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled training never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if ss := p.SchedStats(); ss.JobsCanceled != 1 || ss.JobsFailed != 0 || ss.JobsDone != 0 {
		t.Errorf("sched outcomes canceled/failed/ok = %d/%d/%d, want 1/0/0", ss.JobsCanceled, ss.JobsFailed, ss.JobsDone)
	}
}

// validSnapshot trains one real detector through a persisting pool and
// returns the stored snapshot bytes plus the spec.
func validSnapshot(t *testing.T) ([]byte, DetectorSpec) {
	t.Helper()
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	p := NewDetectorPool(0)
	p.SetStore(fs)
	if _, err := p.await(spec); err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p, 1)
	data, err := fs.Get(spec.ID())
	if err != nil {
		t.Fatal(err)
	}
	return data, spec
}

// BenchmarkAdoptSnapshot times adopting one paper-deployment detector
// from a real FS store: checksummed read, strict decode and detector
// rebuild, the per-detector restart cost a daemon with -store-dir pays
// instead of retraining.
func BenchmarkAdoptSnapshot(b *testing.B) {
	fs, err := store.OpenFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	spec := tinySpec()
	spec.Deployment = deploy.PaperConfig()
	spec.Train.Trials = 300
	p := NewDetectorPool(0)
	p.SetStore(fs)
	if _, err := p.await(spec); err != nil {
		b.Fatal(err)
	}
	waitSaves(b, p, 1)
	b.ReportAllocs()
	for b.Loop() {
		data, err := fs.Get(spec.ID())
		if err != nil {
			b.Fatal(err)
		}
		snap, err := core.DecodeSnapshot(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RestoreDetector(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAdoptFaultInjection is the degradation matrix: for every injected
// fault the pool must boot, classify and (where the bytes themselves
// are bad) quarantine the snapshot, then retrain the spec on demand and
// serve — no panic, no wedged resource, and a fresh snapshot written.
func TestAdoptFaultInjection(t *testing.T) {
	valid, spec := validSnapshot(t)
	id := spec.ID()

	type tally struct{ corrupt, stale, mismatch, errs int }
	cases := []struct {
		name string
		// arrange plants the (possibly damaged) snapshot and returns the
		// store the pool should boot from.
		arrange    func(t *testing.T, fs *store.FS) store.Store
		want       tally
		quarantine bool // the .snap file must be renamed aside
	}{
		{
			name: "torn write",
			arrange: func(t *testing.T, fs *store.FS) store.Store {
				// A crash mid-save through a non-atomic store: the envelope is
				// rewritten (valid) around a truncated payload, so the
				// snapshot codec's own checksum is the only defense.
				if err := fs.Put(id, valid[:len(valid)-24]); err != nil {
					t.Fatal(err)
				}
				return fs
			},
			want:       tally{corrupt: 1},
			quarantine: true,
		},
		{
			name: "bit flip on read",
			arrange: func(t *testing.T, fs *store.FS) store.Store {
				if err := fs.Put(id, valid); err != nil {
					t.Fatal(err)
				}
				f := store.NewFaulty(fs)
				f.SetGetTransform(store.FlipBit(len(valid) / 2))
				return f
			},
			want:       tally{corrupt: 1},
			quarantine: true,
		},
		{
			name: "envelope checksum mismatch",
			arrange: func(t *testing.T, fs *store.FS) store.Store {
				if err := fs.Put(id, valid); err != nil {
					t.Fatal(err)
				}
				// Rot the raw file under the store: Get fails the envelope.
				path := filepath.Join(fs.Dir(), id+".snap")
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)-1] ^= 0x20
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return fs
			},
			want:       tally{corrupt: 1},
			quarantine: true,
		},
		{
			name: "version skew",
			arrange: func(t *testing.T, fs *store.FS) store.Store {
				skewed := append([]byte(nil), valid...)
				skewed[7] = 9 // the byte after the "LADSNAP" magic is the version
				if err := fs.Put(id, skewed); err != nil {
					t.Fatal(err)
				}
				return fs
			},
			want:       tally{stale: 1},
			quarantine: true,
		},
		{
			name: "transient EIO",
			arrange: func(t *testing.T, fs *store.FS) store.Store {
				if err := fs.Put(id, valid); err != nil {
					t.Fatal(err)
				}
				f := store.NewFaulty(fs)
				f.SetGetError(errors.New("injected: input/output error"))
				f.SetReadDelay(5 * time.Millisecond)
				return f
			},
			want:       tally{errs: 1},
			quarantine: false, // the bytes may be fine; keep them for next boot
		},
		{
			name: "deployment hash mismatch",
			arrange: func(t *testing.T, fs *store.FS) store.Store {
				snap, err := core.DecodeSnapshot(valid)
				if err != nil {
					t.Fatal(err)
				}
				// Same length, different content: structurally valid, but the
				// recomputed hash disagrees — a tampered or cross-epoch file.
				snap.DeploymentHash = "f" + snap.DeploymentHash[1:]
				if snap.DeploymentHash == "" {
					t.Fatal("empty hash")
				}
				if err := fs.Put(id, snap.Encode()); err != nil {
					t.Fatal(err)
				}
				return fs
			},
			want:       tally{mismatch: 1},
			quarantine: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := store.OpenFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s := tc.arrange(t, fs)
			p := NewDetectorPool(0)
			p.SetStore(s)
			stats, err := p.AdoptSnapshots()
			if err != nil {
				t.Fatalf("AdoptSnapshots must not fail on a bad snapshot: %v", err)
			}
			got := tally{corrupt: stats.Corrupt, stale: stats.Stale, mismatch: stats.Mismatch, errs: stats.Errors}
			if got != tc.want {
				t.Fatalf("adoption tally = %+v, want %+v (full stats %v)", got, tc.want, stats)
			}
			if stats.Adopted != 0 {
				t.Fatalf("bad snapshot was adopted: %v", stats)
			}
			if _, ok := p.Lookup(id); ok {
				t.Fatal("bad snapshot produced a resident resource")
			}
			if tc.quarantine {
				if _, err := os.Stat(filepath.Join(fs.Dir(), id+".snap.quarantined")); err != nil {
					t.Fatalf("no quarantined file: %v", err)
				}
				ids, err := fs.List()
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != 0 {
					t.Fatalf("store still lists %v after quarantine", ids)
				}
			} else {
				// Transient failure: the snapshot must survive untouched for
				// the next boot to retry.
				if f, ok := s.(*store.Faulty); ok {
					f.SetGetError(nil)
				}
				if _, err := fs.Get(id); err != nil {
					t.Fatalf("snapshot removed after transient error: %v", err)
				}
			}

			// A quarantined spec falls through to normal retraining and
			// serves. The record a transient error left in place is valid,
			// so registering the spec adopts it instead: no training job.
			det, err := p.await(spec)
			if err != nil {
				t.Fatalf("registration after fault: %v", err)
			}
			if v := fixedVerdict(det); v.Threshold == 0 && v.Score == 0 {
				t.Fatal("registered detector served a zero verdict")
			}
			if !tc.quarantine {
				if started := p.jobsStarted.Load(); started != 0 {
					t.Fatalf("registration over a valid stored record started %d training jobs, want 0", started)
				}
				return
			}
			waitSaves(t, p, 1) // and the retrained detector persists again
		})
	}
}

// Adopting into a pool that already has the resource (or one at its
// entry limit) skips the snapshot without quarantining it.
func TestAdoptSkipsResidentAndOverLimit(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	p1 := NewDetectorPool(0)
	p1.SetStore(fs)
	if _, err := p1.await(spec); err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p1, 1)

	// Same pool adopts again: the resource is already resident.
	stats, err := p1.AdoptSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 || stats.Adopted != 0 {
		t.Fatalf("re-adopt on live pool = %v, want 1 skipped", stats)
	}
	if _, err := fs.Get(spec.ID()); err != nil {
		t.Fatalf("skipped snapshot was removed: %v", err)
	}

	// A full pool leaves the valid snapshot in the store too. Training
	// `other` persisted a second snapshot into the shared store (waited
	// on, so the adoption pass below sees a deterministic store): the
	// sweep then skips `other` as resident and `spec` as over-limit.
	p2 := NewDetectorPool(1)
	p2.SetStore(fs)
	other := tinySpec()
	other.Train.Seed++
	if _, err := p2.await(other); err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p2, 1)
	stats, err = p2.AdoptSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 2 || stats.Adopted != 0 {
		t.Fatalf("adopt into full pool = %v, want 2 skipped (resident + over-limit)", stats)
	}
	if _, err := fs.Get(spec.ID()); err != nil {
		t.Fatalf("skipped snapshot was removed: %v", err)
	}
}

// TestRegistrationAdoptsSkippedSnapshot: a complete snapshot that boot
// adoption skipped because the pool was at its entry limit is adopted
// when its spec is registered later — ready at once, no training job,
// and the stored detector's verdicts bit-for-bit.
func TestRegistrationAdoptsSkippedSnapshot(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []DetectorSpec{tinySpec(), tinySpec()}
	specs[1].Train.Seed++
	stored := map[string]core.Verdict{}
	p1 := NewDetectorPool(0)
	p1.SetStore(fs)
	for _, spec := range specs {
		det, err := p1.await(spec)
		if err != nil {
			t.Fatal(err)
		}
		stored[spec.ID()] = fixedVerdict(det)
	}
	waitSaves(t, p1, 2)

	p2 := NewDetectorPool(1)
	p2.SetStore(fs)
	stats, err := p2.AdoptSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != 1 || stats.Skipped != 1 {
		t.Fatalf("AdoptSnapshots into a 1-entry pool = %v, want 1 adopted, 1 skipped", stats)
	}
	adopted := p2.List()[0].ID
	skipped := specs[0]
	if skipped.ID() == adopted {
		skipped = specs[1]
	}
	if !p2.Delete(adopted) {
		t.Fatal("delete of the adopted detector failed")
	}
	st, created, err := p2.Register(skipped)
	if err != nil {
		t.Fatal(err)
	}
	if created || st.State != StateReady {
		t.Fatalf("registration = %+v (created %v), want the stored detector ready at once", st, created)
	}
	if started := p2.jobsStarted.Load(); started != 0 {
		t.Errorf("ladd_train_jobs_started_total = %d, want 0", started)
	}
	if n := p2.snapAdopted.Load(); n != 2 {
		t.Errorf("ladd_snapshots_adopted_total = %d, want 2", n)
	}
	det, _, ok := p2.Detector(skipped.ID())
	if !ok {
		t.Fatal("registered detector not servable")
	}
	if got, want := fixedVerdict(det), stored[skipped.ID()]; got != want {
		t.Errorf("verdict = %+v, want the stored detector's %+v", got, want)
	}
}

// The snapshot metric families render with their outcomes.
func TestMetricsRenderSnapshotFamilies(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewDetectorPool(0)
	p.SetStore(fs)
	if _, err := p.await(tinySpec()); err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p, 1)
	out := scrapePool(t, p)
	for _, want := range []string{
		`ladd_snapshot_saves_total{outcome="ok"} 1`,
		`ladd_snapshot_saves_total{outcome="error"} 0`,
		`ladd_snapshot_loads_total{outcome="ok"} 0`,
		`ladd_snapshot_loads_total{outcome="corrupt"} 0`,
		`ladd_snapshot_loads_total{outcome="stale"} 0`,
		`ladd_snapshot_loads_total{outcome="mismatch"} 0`,
		"ladd_snapshots_adopted_total 0",
		"ladd_store_errors_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
