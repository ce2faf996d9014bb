package serve

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/store"
)

// Snapshot persistence: when a store is configured (SetStore), each
// resource id has one record under one store key, <id>. The pool writes
// a partial snapshot (a training checkpoint) after every non-final
// training batch and a complete one every time the resource becomes
// ready or is rethresholded, each replacing the last; it removes the
// record on Delete and when a flight fails. On boot (AdoptSnapshots) it
// re-installs every valid complete snapshot as a StateReady resource —
// zero retraining, expectation caches rebuilt lazily on first check —
// and leaves valid partial ones for their flight to resume (resumeRun).
// A registration of a spec that is not resident adopts its complete
// record the same way (adoptRegistered), so one that boot skipped at
// the pool's entry limit is not retrained either.
//
// Degradation rules, in both directions:
//
//   - Writes never gate serving. Saves run asynchronously; a store that
//     errors gets a few retries with capped backoff, then the detector
//     simply serves from memory (counted, logged) — a full disk must
//     not fail a training run that already succeeded.
//   - Reads never gate boot. A snapshot that is corrupt, from another
//     encoding epoch (stale), or inconsistent with its own identity
//     (mismatch) is quarantined — renamed aside by the store so it is
//     consulted exactly once — counted by outcome, and the spec falls
//     through to normal on-demand retraining. Transient read errors
//     (EIO) leave the file in place for the next boot.

// SetStore configures the snapshot store. Configure before serving and
// before AdoptSnapshots; nil (the default) disables persistence.
//
//lad:setup
func (p *DetectorPool) SetStore(s store.Store) {
	p.snapStore = s
}

// specFromSnapshot rebuilds the DetectorSpec a snapshot claims to have
// been trained under; the pool re-derives Key/ID from it and refuses to
// adopt when they disagree with the stored identity.
func specFromSnapshot(s *core.Snapshot) DetectorSpec {
	return DetectorSpec{
		Deployment: s.Deployment,
		Metric:     s.Metric,
		Train: TrainSpec{
			Trials:      s.Trials,
			Percentile:  s.TrainPercentile,
			Seed:        s.Seed,
			KeepInField: s.KeepInField,
			// Snapshots store the epoch explicitly (1 or 2; v1 decodes as
			// 1). Key() hashes epoch 1 as nothing, so pre-epoch snapshots
			// keep their pre-epoch identity.
			SimEpoch: s.SimEpoch,
		},
	}
}

// buildSnapshot assembles the durable form of a ready entry: the
// detector contributes the deployment config and live threshold, the
// entry contributes identity, train parameters, operating point and the
// retained benign sample (copied — the entry's own slice stays live).
func (p *DetectorPool) buildSnapshot(e *poolEntry) (*core.Snapshot, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != StateReady || e.evicted || e.det == nil {
		return nil, false
	}
	s := e.det.Snapshot()
	s.SpecKey = e.spec.Key()
	s.Trials = e.spec.Train.Trials
	s.TrainPercentile = e.spec.Train.Percentile
	s.Seed = e.spec.Train.Seed
	s.KeepInField = e.spec.Train.KeepInField
	s.SimEpoch = e.spec.Train.simEpoch() // the format stores it explicit
	s.TrialsDone = s.Trials
	s.Percentile = e.percentile
	s.TrainSeconds = e.trainSecs
	s.BenignSample = append([]float64(nil), e.scores...)
	return s, true
}

// persistEntry schedules an asynchronous snapshot save for e. No-op
// without a store. Training and rethreshold latency never include the
// disk.
func (p *DetectorPool) persistEntry(e *poolEntry) {
	if p.snapStore == nil {
		return
	}
	p.writes.add()
	go func() {
		defer p.writes.done()
		p.saveEntrySnapshot(e)
	}()
}

// WaitSaves blocks until the pool's store writes in flight have
// finished: snapshot saves of ready and rethresholded detectors,
// including those of flights that just published. A save makes
// at most saveSnapshotAttempts attempts with backoff capped at 50 ms,
// so the wait is bounded by the store's own latency. Call it before
// exiting, after the last request has been served, or a snapshot saved
// just before shutdown is lost.
func (p *DetectorPool) WaitSaves() { p.writes.wait() }

// VerifySnapshot reports an error unless id's stored record is the
// complete snapshot of threshold. A failed save only logs, so a process
// whose output is that record (ladd -warmup-only -store-dir) checks it
// after WaitSaves. Requires a store (SetStore).
func (p *DetectorPool) VerifySnapshot(id string, threshold float64) error {
	data, err := p.snapStore.Get(id)
	if err != nil {
		return err
	}
	snap, err := core.DecodeSnapshot(data)
	if err == nil && (snap.Partial() || snap.Threshold != threshold) {
		err = fmt.Errorf("serve: stored record %s (%d of %d trials, threshold %g) is not the complete snapshot of threshold %g",
			id, snap.TrialsDone, snap.Trials, snap.Threshold, threshold)
	}
	return err
}

// pendingWrites counts in-flight work and lets a caller wait for the
// count to reach zero. Unlike a sync.WaitGroup, add may run
// concurrently with wait from a zero count: a training flight can still
// finish while shutdown waits.
type pendingWrites struct {
	mu sync.Mutex
	//lad:guardedby mu
	n int
	// idle is closed when n drops back to zero; nil while idle.
	//lad:guardedby mu
	idle chan struct{}
}

func (w *pendingWrites) add() {
	w.mu.Lock()
	if w.n == 0 {
		w.idle = make(chan struct{})
	}
	w.n++
	w.mu.Unlock()
}

func (w *pendingWrites) done() {
	w.mu.Lock()
	if w.n--; w.n == 0 {
		close(w.idle)
		w.idle = nil
	}
	w.mu.Unlock()
}

// wait returns once the count has been zero at some point since the
// call: at once when nothing is in flight.
func (w *pendingWrites) wait() {
	w.mu.Lock()
	idle := w.idle
	w.mu.Unlock()
	if idle != nil {
		<-idle
	}
}

// saveSnapshotAttempts and the backoff bounds shape the save retry
// loop: enough attempts to ride out a transiently busy disk, small
// enough that an abandoned save resolves in well under a second.
const saveSnapshotAttempts = 4

// saveEntrySnapshot writes one snapshot with capped-backoff retries.
// saveMu serializes saves per entry, and the snapshot is rebuilt from
// live state under it, so concurrent ready+rethreshold saves cannot
// persist an older operating point over a newer one, and a Delete
// cannot land between the build and the Put.
func (p *DetectorPool) saveEntrySnapshot(e *poolEntry) {
	e.saveMu.Lock()
	defer e.saveMu.Unlock()
	snap, ok := p.buildSnapshot(e)
	if !ok {
		return // no longer ready (evicted since scheduling); nothing to save
	}
	if err := snap.Validate(); err != nil {
		// Unreachable with the production trainer (the sample size always
		// matches the spec); a test trainer can get here. Never persist
		// bytes adoption would quarantine.
		p.snapSaveErr.Add(1)
		log.Printf("serve: snapshot for %s failed validation, not saved: %v", e.id, err)
		return
	}
	data := snap.Encode()
	backoff := 5 * time.Millisecond
	var err error
	for attempt := 0; attempt < saveSnapshotAttempts; attempt++ {
		if err = p.snapStore.Put(e.id, data); err == nil {
			p.snapSaveOK.Add(1)
			return
		}
		p.storeErrors.Add(1)
		if attempt < saveSnapshotAttempts-1 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			}
		}
	}
	p.snapSaveErr.Add(1)
	log.Printf("serve: persisting detector %s failed after %d attempts, serving from memory: %v",
		e.id, saveSnapshotAttempts, err)
}

// deleteSnapshot removes e's record from the store, best-effort. It
// holds saveMu, so no save that began before it can land after it.
func (p *DetectorPool) deleteSnapshot(e *poolEntry) {
	if p.snapStore == nil {
		return
	}
	e.saveMu.Lock()
	defer e.saveMu.Unlock()
	if err := p.snapStore.Delete(e.id); err != nil {
		p.storeErrors.Add(1)
		log.Printf("serve: deleting snapshot %s: %v", e.id, err)
	}
}

// saveCheckpoint persists t's run progress after a non-final batch as
// a partial snapshot under the resource's id: one synchronous Put, no
// retries — the next batch brings the next save, which is all the retry
// a checkpoint needs. No-op without a store or once the resource is
// deleted. Failures are counted and swallowed: a dead disk degrades
// crash-resume to restart-from-zero, it never fails the training job.
// The encode reuses the task's receiver and buffer (0 allocs/op at
// steady state, held by core.TestCheckpointEncodeDecodeZeroAllocs).
func (p *DetectorPool) saveCheckpoint(t *trialTask) {
	if p.snapStore == nil {
		return
	}
	e := t.e
	e.saveMu.Lock()
	defer e.saveMu.Unlock()
	e.mu.Lock()
	evicted := e.evicted
	e.mu.Unlock()
	if evicted {
		return
	}
	t.run.CheckpointInto(&t.ck)
	t.buf = t.ck.AppendBinary(t.buf[:0])
	if err := p.snapStore.Put(e.id, t.buf); err != nil {
		p.ckptSaveErr.Add(1)
		p.storeErrors.Add(1)
		return
	}
	p.ckptSaveOK.Add(1)
}

// resumeRun tries to rebuild a training run from the partial snapshot
// stored under id. Any failure — no store, no record, unreadable bytes,
// a record for a different spec or configuration — returns nil and the
// caller starts from trial zero; records resume cannot use are counted
// and quarantined so they are consulted exactly once. A complete record
// is left alone: the flight's final save replaces it. ck is the
// caller's reusable decode receiver.
func (p *DetectorPool) resumeRun(id, specKey, depHash string, model *deploy.Model, metric core.Metric, cfg core.TrainConfig, ck *core.Snapshot) *core.TrainRun {
	if p.snapStore == nil {
		return nil
	}
	data, err := p.snapStore.Get(id)
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			p.storeErrors.Add(1)
			log.Printf("serve: checkpoint for %s unreadable, training from scratch: %v", id, err)
		}
		return nil
	}
	var run *core.TrainRun
	if err = ck.UnmarshalBinary(data); err == nil {
		if !ck.Partial() {
			return nil
		}
		if ck.SpecKey != specKey || ck.DeploymentHash != depHash {
			err = fmt.Errorf("%w: stored identity does not name this resource", core.ErrSnapshotMismatch)
		} else {
			run, err = core.ResumeTrainRun(model, metric, cfg, ck)
		}
	}
	if err != nil {
		p.ckptRejected.Add(1)
		p.quarantineSnapshot(id, err)
		return nil
	}
	p.ckptResumes.Add(1)
	p.ckptResumedTrials.Add(uint64(run.TrialsDone()))
	log.Printf("serve: resuming training for %s from checkpoint: %d of %d trials done", id, run.TrialsDone(), run.Trials())
	return run
}

// adoptRegistered installs the complete snapshot stored under spec's id
// as a ready resource, as boot adoption does; the registration then
// serves at once and starts no training job. Any other record is left
// for the flight's own read (resumeRun), which resumes a partial one and
// classifies and counts an unusable one.
func (p *DetectorPool) adoptRegistered(spec DetectorSpec) {
	id, key := spec.ID(), spec.Key()
	data, err := p.snapStore.Get(id)
	if err != nil {
		return
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil || snap.Partial() || snap.SpecKey != key || specFromSnapshot(snap).Key() != key {
		return
	}
	det, err := core.RestoreDetector(snap)
	if err != nil || !p.installAdopted(id, spec, snap, det) {
		return
	}
	p.snapLoadOK.Add(1)
	p.snapAdopted.Add(1)
}

// AdoptStats summarizes one AdoptSnapshots pass.
type AdoptStats struct {
	// Adopted counts snapshots installed as ready resources.
	Adopted int
	// Corrupt, Stale and Mismatch count quarantined snapshots by cause.
	Corrupt  int
	Stale    int
	Mismatch int
	// Errors counts snapshots left in place behind transient store
	// errors (unreadable now, retried next boot).
	Errors int
	// Skipped counts valid snapshots not installed: training checkpoints,
	// which wait in place for their flight to resume, and snapshots whose
	// resource already exists or that the pool is at its entry limit for.
	// Their files stay; registering the spec later adopts a complete one.
	Skipped int
}

func (s AdoptStats) String() string {
	return fmt.Sprintf("adopted=%d corrupt=%d stale=%d mismatch=%d errors=%d skipped=%d",
		s.Adopted, s.Corrupt, s.Stale, s.Mismatch, s.Errors, s.Skipped)
}

// Adoption outcomes, one per listed snapshot.
const (
	adoptOK       = "ok"
	adoptCorrupt  = "corrupt"
	adoptStale    = "stale"
	adoptMismatch = "mismatch"
	adoptError    = "error"
	adoptSkipped  = "skipped"
)

// AdoptSnapshots loads every stored snapshot and installs the valid
// ones as ready resources — the boot path that replaces retraining
// after a restart. Bad snapshots are quarantined and counted, never
// fatal: the returned error is non-nil only when the store itself
// cannot be listed. Call once at startup, after the pool is configured
// and before serving.
func (p *DetectorPool) AdoptSnapshots() (AdoptStats, error) {
	var st AdoptStats
	if p.snapStore == nil {
		return st, nil
	}
	ids, err := p.snapStore.List()
	if err != nil {
		p.storeErrors.Add(1)
		return st, fmt.Errorf("serve: listing snapshot store: %w", err)
	}
	for _, id := range ids {
		switch p.adoptOne(id) {
		case adoptOK:
			p.snapLoadOK.Add(1)
			p.snapAdopted.Add(1)
			st.Adopted++
		case adoptCorrupt:
			p.snapLoadCorrupt.Add(1)
			st.Corrupt++
		case adoptStale:
			p.snapLoadStale.Add(1)
			st.Stale++
		case adoptMismatch:
			p.snapLoadMismatch.Add(1)
			st.Mismatch++
		case adoptError:
			st.Errors++
		case adoptSkipped:
			p.snapLoadOK.Add(1)
			st.Skipped++
		}
	}
	return st, nil
}

// adoptOne classifies and (when valid) installs a single stored
// snapshot, returning its adoption outcome.
func (p *DetectorPool) adoptOne(id string) string {
	data, err := p.snapStore.Get(id)
	if err != nil {
		if errors.Is(err, store.ErrCorrupt) {
			p.quarantineSnapshot(id, err)
			return adoptCorrupt
		}
		// Transient (EIO, contention): the bytes may be fine — leave the
		// file for the next boot instead of quarantining blind.
		p.storeErrors.Add(1)
		log.Printf("serve: snapshot %s unreadable, left in place: %v", id, err)
		return adoptError
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		p.quarantineSnapshot(id, err)
		if errors.Is(err, core.ErrSnapshotVersion) {
			return adoptStale
		}
		return adoptCorrupt
	}
	spec := specFromSnapshot(snap)
	if key := spec.Key(); key != snap.SpecKey || spec.ID() != id {
		// Structurally fine, but the embedded config no longer derives the
		// identity it is stored under — a renamed file or a key-derivation
		// epoch change. Adopting it would serve the wrong resource name.
		p.quarantineSnapshot(id, fmt.Errorf("stored identity %s does not match recomputed spec (key %.12s… id %s)", id, key, spec.ID()))
		return adoptMismatch
	}
	if snap.Partial() {
		// A training checkpoint: its flight resumes from it (resumeRun)
		// when the spec is registered again.
		if err := snap.VerifyDeploymentHash(); err != nil {
			p.quarantineSnapshot(id, err)
			return adoptMismatch
		}
		return adoptSkipped
	}
	det, err := core.RestoreDetector(snap)
	if err != nil {
		p.quarantineSnapshot(id, err)
		if errors.Is(err, core.ErrSnapshotMismatch) {
			return adoptMismatch
		}
		return adoptCorrupt
	}
	if !p.installAdopted(id, spec, snap, det) {
		return adoptSkipped
	}
	return adoptOK
}

// quarantineSnapshot moves a bad snapshot aside so it is never
// consulted again, logging the cause.
func (p *DetectorPool) quarantineSnapshot(id string, cause error) {
	log.Printf("serve: quarantining snapshot %s: %v", id, cause)
	if err := p.snapStore.Quarantine(id); err != nil {
		p.storeErrors.Add(1)
		log.Printf("serve: quarantining snapshot %s failed: %v", id, err)
	}
}

// installAdopted publishes a restored detector as a ready resource,
// installing the pool's cache budget as finishTraining would. Reports
// false (leaving the snapshot file in place) when the resource already
// exists or the pool is at its live-entry limit.
func (p *DetectorPool) installAdopted(id string, spec DetectorSpec, snap *core.Snapshot, det *core.Detector) bool {
	// Budget installation mirrors finishTraining's pre-publish step; the
	// entry is not reachable yet, so no check can race the rebuild.
	det.SetExpCacheBudget(p.expBudget)

	done := make(chan struct{})
	close(done)
	e := &poolEntry{
		id:    id,
		spec:  spec,
		state: StateReady,
		det:   det,
		// The decoder validated the sample ascending, so rethreshold's
		// PercentileSorted reads are immediately correct.
		scores:     snap.BenignSample,
		percentile: snap.Percentile,
		trainSecs:  snap.TrainSeconds,
		done:       done,
	}
	key := spec.Key()
	p.mu.Lock()
	if p.entries[key] != nil || p.byID[id] != nil {
		p.mu.Unlock()
		det.RetireExpCache()
		return false
	}
	if p.limit > 0 && p.liveCountLocked() >= p.limit {
		p.mu.Unlock()
		det.RetireExpCache()
		log.Printf("serve: snapshot %s valid but pool is at its entry limit; left in store", id)
		return false
	}
	p.entries[key] = e
	p.byID[id] = e
	p.mu.Unlock()
	return true
}
