package serve

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/store"
)

// partialCheckpoint trains trials leading trials of spec out-of-process
// (a plain core.TrainRun, the way a killed daemon would have) and
// returns the wire-form checkpoint a crashed flight leaves behind.
func partialCheckpoint(t *testing.T, spec DetectorSpec, trials int) []byte {
	t.Helper()
	model, err := deploy.New(spec.Deployment)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Train.TrainConfig()
	cfg.Workers = 1
	run, err := core.NewTrainRun(model, core.MetricByName(spec.Metric), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RunBatch(trials); err != nil {
		t.Fatal(err)
	}
	ck := core.Snapshot{SpecKey: spec.Key(), DeploymentHash: spec.Deployment.Hash()}
	run.CheckpointInto(&ck)
	return ck.Encode()
}

// waitCheckpointGone polls until the resource's record in the store is
// its finished snapshot, not a checkpoint (the save runs just after the
// ready state publishes), and is the only record there.
func waitCheckpointGone(t *testing.T, s store.Store, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := s.Get(id); err == nil {
			if snap, err := core.DecodeSnapshot(data); err == nil && !snap.Partial() {
				assertOnlyRecord(t, s, id)
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("checkpoint for %s still in store", id)
}

// assertOnlyRecord fails unless id is the one record in s.
func assertOnlyRecord(t *testing.T, s store.Store, id string) {
	t.Helper()
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []string{id}) {
		t.Errorf("store holds %v, want exactly [%s]", ids, id)
	}
}

// TestCheckpointResumeAcrossPools is the crash-resume path end to end:
// a fresh pool finds the dead flight's checkpoint, adopts its trials,
// and finishes with the exact threshold an uninterrupted run produces.
func TestCheckpointResumeAcrossPools(t *testing.T) {
	spec := tinySpec()
	const preTrials = 32

	// Reference: an uninterrupted training in a store-less pool.
	ref, err := NewDetectorPool(0).await(spec)
	if err != nil {
		t.Fatal(err)
	}

	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(spec.ID(), partialCheckpoint(t, spec, preTrials)); err != nil {
		t.Fatal(err)
	}

	p := NewDetectorPool(0)
	p.SetStore(fs)
	det, err := p.await(spec)
	if err != nil {
		t.Fatal(err)
	}
	resumes, resumedTrials, rejected := p.ckptResumes.Load(), p.ckptResumedTrials.Load(), p.ckptRejected.Load()
	if resumes != 1 || resumedTrials != preTrials || rejected != 0 {
		t.Errorf("resumes/resumedTrials/rejected = %d/%d/%d, want 1/%d/0", resumes, resumedTrials, rejected, preTrials)
	}
	if det.Threshold() != ref.Threshold() {
		t.Errorf("resumed threshold %v != uninterrupted %v", det.Threshold(), ref.Threshold())
	}
	v1, v2 := fixedVerdict(ref), fixedVerdict(det)
	if v1.Score != v2.Score || v1.Alarm != v2.Alarm {
		t.Errorf("resumed verdict (%v, %v) != reference (%v, %v)", v2.Score, v2.Alarm, v1.Score, v1.Alarm)
	}
	// Success retires the checkpoint; only the ready snapshot remains.
	waitCheckpointGone(t, fs, spec.ID())
	waitSaves(t, p, 1)
}

// TestCheckpointSavedBetweenBatches: with a small batch budget, a
// training flight persists progress as it goes and retires the
// checkpoint once the detector is ready.
func TestCheckpointSavedBetweenBatches(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewDetectorPool(0)
	p.SetSchedBatchTrials(16)
	p.SetStore(fs)
	spec := tinySpec() // 80 trials → 5 batches → 4 mid-run checkpoints
	if _, err := p.await(spec); err != nil {
		t.Fatal(err)
	}
	saveOK, saveErr := p.ckptSaveOK.Load(), p.ckptSaveErr.Load()
	if saveOK != 4 || saveErr != 0 {
		t.Errorf("checkpoint saves ok/err = %d/%d, want 4/0", saveOK, saveErr)
	}
	waitCheckpointGone(t, fs, spec.ID())
	waitSaves(t, p, 1)
}

// TestCheckpointWriteFaultDegrades is the fault-injection leg: a dead
// disk on the checkpoint path must cost nothing but durability —
// training completes, the error is counted, and a restart simply starts
// from trial zero.
func TestCheckpointWriteFaultDegrades(t *testing.T) {
	inner, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := store.NewFaulty(inner)
	faulty.SetPutError(errors.New("disk on fire"))

	ref, err := NewDetectorPool(0).await(tinySpec())
	if err != nil {
		t.Fatal(err)
	}

	p := NewDetectorPool(0)
	p.SetSchedBatchTrials(16)
	p.SetStore(faulty)
	det, err := p.await(tinySpec())
	if err != nil {
		t.Fatalf("training must survive a dead checkpoint disk: %v", err)
	}
	if det.Threshold() != ref.Threshold() {
		t.Errorf("threshold moved under write faults: %v != %v", det.Threshold(), ref.Threshold())
	}
	saveOK, saveErr := p.ckptSaveOK.Load(), p.ckptSaveErr.Load()
	if saveOK != 0 || saveErr < 1 {
		t.Errorf("checkpoint saves ok/err = %d/%d, want 0/≥1", saveOK, saveErr)
	}

	// The restart-from-zero degradation: nothing was persisted, so a
	// fresh pool over the (healthy again) store resumes nothing and
	// still reaches the same operating point.
	p2 := NewDetectorPool(0)
	p2.SetStore(inner)
	det2, err := p2.await(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if resumes := p2.ckptResumes.Load(); resumes != 0 {
		t.Errorf("resumes = %d, want 0 after failed saves", resumes)
	}
	if det2.Threshold() != ref.Threshold() {
		t.Errorf("restart-from-zero threshold %v != reference %v", det2.Threshold(), ref.Threshold())
	}
	waitSaves(t, p2, 1)
}

// TestCheckpointRejectedOnCorruptOrForeignBytes: a mangled checkpoint
// and one for a different spec both degrade to a clean from-scratch
// run, are counted, and are quarantined so they are consulted only
// once; the finished detector's snapshot then takes the key.
func TestCheckpointRejectedOnCorruptOrForeignBytes(t *testing.T) {
	spec := tinySpec()
	other := tinySpec()
	other.Train.Seed++

	cases := []struct {
		name  string
		bytes func(t *testing.T) []byte
	}{
		{"corrupt", func(t *testing.T) []byte {
			data := partialCheckpoint(t, spec, 16)
			data[len(data)/2] ^= 0x40
			return data
		}},
		{"foreign spec", func(t *testing.T) []byte {
			return partialCheckpoint(t, other, 16)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := store.OpenFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Put(spec.ID(), tc.bytes(t)); err != nil {
				t.Fatal(err)
			}
			p := NewDetectorPool(0)
			p.SetStore(fs)
			if _, err := p.await(spec); err != nil {
				t.Fatalf("bad checkpoint must not fail training: %v", err)
			}
			resumes, rejected := p.ckptResumes.Load(), p.ckptRejected.Load()
			if resumes != 0 || rejected != 1 {
				t.Errorf("resumes/rejected = %d/%d, want 0/1", resumes, rejected)
			}
			if _, err := os.Stat(filepath.Join(fs.Dir(), spec.ID()+".snap.quarantined")); err != nil {
				t.Errorf("rejected checkpoint not quarantined: %v", err)
			}
			waitSaves(t, p, 1)
			waitCheckpointGone(t, fs, spec.ID())
		})
	}
}

// TestAdoptSkipsCheckpoints: boot-time adoption must leave a valid
// checkpoint in place for its flight to resume, not install it or
// quarantine it (which would destroy resumable progress at every boot).
func TestAdoptSkipsCheckpoints(t *testing.T) {
	spec := tinySpec()
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ckBytes := partialCheckpoint(t, spec, 16)
	if err := fs.Put(spec.ID(), ckBytes); err != nil {
		t.Fatal(err)
	}
	p := NewDetectorPool(0)
	p.SetStore(fs)
	stats, err := p.AdoptSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != 0 || stats.Corrupt != 0 || stats.Stale != 0 || stats.Mismatch != 0 || stats.Errors != 0 {
		t.Errorf("AdoptSnapshots = %v, want everything zero for a checkpoint-only store", stats)
	}
	got, err := fs.Get(spec.ID())
	if err != nil || len(got) != len(ckBytes) {
		t.Errorf("checkpoint disturbed by adoption: err=%v", err)
	}
	if _, ok := p.Lookup(spec.ID()); ok {
		t.Error("a checkpoint was installed as a resource")
	}
}

// TestAdoptQuarantinesBadCheckpoints: a checkpoint gets the same
// adoption taxonomy as any snapshot — a corrupt one and one whose
// embedded deployment no longer hashes to its stored hash are
// quarantined at boot, not left for resume.
func TestAdoptQuarantinesBadCheckpoints(t *testing.T) {
	spec := tinySpec()
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := partialCheckpoint(t, spec, 16)
	corrupt[len(corrupt)/2] ^= 0x40
	other := tinySpec()
	other.Train.Seed++
	forged, err := core.DecodeSnapshot(partialCheckpoint(t, other, 16))
	if err != nil {
		t.Fatal(err)
	}
	forged.DeploymentHash = strings.Repeat("0", 64)
	for id, data := range map[string][]byte{spec.ID(): corrupt, other.ID(): forged.Encode()} {
		if err := fs.Put(id, data); err != nil {
			t.Fatal(err)
		}
	}
	p := NewDetectorPool(0)
	p.SetStore(fs)
	stats, err := p.AdoptSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupt != 1 || stats.Mismatch != 1 || stats.Adopted != 0 || stats.Skipped != 0 {
		t.Errorf("AdoptSnapshots = %v, want corrupt=1 mismatch=1", stats)
	}
	if ids, _ := fs.List(); len(ids) != 0 {
		t.Errorf("bad checkpoints left for resume: %v", ids)
	}
}

// TestOneRecordPerDetector: a training flight's checkpoints and its
// finished snapshot share the resource's one store key — after every
// mid-training save and after the final save, the store holds exactly
// [id].
func TestOneRecordPerDetector(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := &listingStore{Store: fs}
	p := NewDetectorPool(0)
	p.SetSchedBatchTrials(16)
	p.SetStore(rec)
	spec := tinySpec() // 80 trials → 5 batches → 4 mid-run checkpoints
	if _, err := p.await(spec); err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p, 1)
	rec.mu.Lock()
	lists, partials := rec.lists, rec.partials
	rec.mu.Unlock()
	if len(lists) != 5 || partials != 4 {
		t.Fatalf("saw %d saves (%d checkpoints), want 5 (4)", len(lists), partials)
	}
	for i, ids := range lists {
		if !slices.Equal(ids, []string{spec.ID()}) {
			t.Errorf("after save %d the store holds %v, want exactly [%s]", i, ids, spec.ID())
		}
	}
	waitCheckpointGone(t, fs, spec.ID())
}

// listingStore records the store's listing after every Put, and how
// many of the Puts were checkpoints.
type listingStore struct {
	store.Store
	mu       sync.Mutex
	lists    [][]string
	partials int
}

func (s *listingStore) Put(id string, data []byte) error {
	err := s.Store.Put(id, data)
	ids, _ := s.Store.List()
	snap, _ := core.DecodeSnapshot(data)
	s.mu.Lock()
	s.lists = append(s.lists, ids)
	if snap != nil && snap.Partial() {
		s.partials++
	}
	s.mu.Unlock()
	return err
}

// gatedStore holds its next Put, once armed, between the save building
// its record and the write: entered fires when the Put arrives, the
// write waits for release, and written closes once it has landed.
type gatedStore struct {
	store.Store
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	written chan struct{}
}

func newGatedStore(s store.Store) *gatedStore {
	return &gatedStore{Store: s, entered: make(chan struct{}, 1), release: make(chan struct{}), written: make(chan struct{})}
}

func (g *gatedStore) Put(id string, data []byte) error {
	if !g.armed.CompareAndSwap(true, false) {
		return g.Store.Put(id, data)
	}
	g.entered <- struct{}{}
	<-g.release
	defer close(g.written)
	return g.Store.Put(id, data)
}

// deleteDuringGatedPut runs Delete(id) while g holds a save's Put, then
// lets the Put land: give Delete time to finish first (it does when it
// ignores the save), then release the write.
func deleteDuringGatedPut(t *testing.T, p *DetectorPool, g *gatedStore, id string) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no save reached the store")
	}
	deleted := make(chan bool)
	go func() { deleted <- p.Delete(id) }()
	var ok bool
	select {
	case ok = <-deleted:
		close(g.release)
	case <-time.After(50 * time.Millisecond):
		close(g.release)
		ok = <-deleted
	}
	if !ok {
		t.Fatal("Delete returned false")
	}
	<-g.written
	p.WaitSaves()
}

// TestDeleteDuringSnapshotSaveStays: a Delete that lands while a
// rethreshold's snapshot is between its build and its Put must win —
// the deleted detector may not come back at the next boot.
func TestDeleteDuringSnapshotSaveStays(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := newGatedStore(fs)
	p := NewDetectorPool(0)
	p.SetStore(g)
	spec := tinySpec()
	if _, err := p.await(spec); err != nil {
		t.Fatal(err)
	}
	waitSaves(t, p, 1)
	g.armed.Store(true)
	if _, err := p.Rethreshold(spec.ID(), 95); err != nil {
		t.Fatal(err)
	}
	deleteDuringGatedPut(t, p, g, spec.ID())
	if ids, _ := fs.List(); len(ids) != 0 {
		t.Errorf("deleted detector's record outlived Delete: %v", ids)
	}
	p2 := NewDetectorPool(0)
	p2.SetStore(fs)
	if stats, err := p2.AdoptSnapshots(); err != nil || stats.Adopted != 0 {
		t.Errorf("next boot AdoptSnapshots = %v, %v; want nothing adopted", stats, err)
	}
}

// TestDeleteDuringCheckpointSaveStays: the same race on a training
// flight's checkpoint — a mid-training Delete during a batch's save
// leaves no orphan record.
func TestDeleteDuringCheckpointSaveStays(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := newGatedStore(fs)
	g.armed.Store(true)
	p := NewDetectorPool(0)
	p.SetSchedBatchTrials(16)
	p.SetStore(g)
	st, _, err := p.Register(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	deleteDuringGatedPut(t, p, g, st.ID)
	if ids, _ := fs.List(); len(ids) != 0 {
		t.Errorf("deleted flight's checkpoint outlived Delete: %v", ids)
	}
}

// TestRetryAfterScalesWithQueuePosition: a deeply queued registration
// gets a proportionally longer poll hint than the head of the line.
func TestRetryAfterScalesWithQueuePosition(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := newDetectorPoolWithTrainer(func(spec DetectorSpec, _ int, cancel <-chan struct{}) (*core.Detector, []float64, error) {
		select {
		case <-block:
		case <-cancel:
		}
		return nil, nil, errors.New("test trainer never finishes")
	})
	p.SetTrainConcurrency(1)

	specs := make([]DetectorSpec, 3)
	ids := make([]string, 3)
	for i := range specs {
		specs[i] = tinySpec()
		specs[i].Train.Seed = uint64(100 + i)
		st, _, err := p.Register(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	headSt, _ := p.Lookup(ids[1])
	tailSt, _ := p.Lookup(ids[2])
	head := p.RetryAfter(headSt) // next in line
	tail := p.RetryAfter(tailSt) // behind it
	if tail <= head {
		t.Errorf("RetryAfter(tail) = %v, want > head's %v", tail, head)
	}
	if head < 100*time.Millisecond || tail > 30*time.Second {
		t.Errorf("hints outside clamp: head %v, tail %v", head, tail)
	}
}
