package serve

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/store"
)

// TestUpgradeParentStore boots over a store written by the build before
// checkpoints became partial snapshots (testdata/parent-store): the
// version-2 snapshot of tinySpec() and a "LADCKPT" checkpoint, 32
// trials in, of the same spec with seed 6, under its old "ckpt-<id>"
// key. The snapshot adopts with its verdicts intact, the checkpoint is
// quarantined as stale, and that spec's next flight starts at trial 0
// and still reaches the reference threshold. Both were trained at
// epoch 1, the default of that build, so their specs name it
// explicitly: an epoch-1 spec keeps the id it was stored under.
func TestUpgradeParentStore(t *testing.T) {
	ready, partial := tinySpec(), tinySpec()
	ready.Train.SimEpoch, partial.Train.SimEpoch = 1, 1
	partial.Train.Seed = 6
	legacy := "ckpt-" + partial.ID()
	if id := ready.ID(); id != "d0444542062cad33d" {
		t.Fatalf("epoch-1 spec id %s, want the stored d0444542062cad33d", id)
	}

	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-store")
	for _, name := range []string{ready.ID() + ".snap", legacy + ".snap"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}

	p := NewDetectorPool(0)
	p.SetStore(fs)
	stats, err := p.AdoptSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != 1 || stats.Stale != 1 || stats.Corrupt != 0 || stats.Mismatch != 0 || stats.Skipped != 0 {
		t.Fatalf("AdoptSnapshots = %v, want adopted=1 stale=1", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, legacy+".snap.quarantined")); err != nil {
		t.Errorf("legacy checkpoint not quarantined: %v", err)
	}

	refReady, err := NewDetectorPool(0).await(ready)
	if err != nil {
		t.Fatal(err)
	}
	adopted, st, ok := p.Detector(ready.ID())
	if !ok || st.State != StateReady {
		t.Fatalf("adopted resource = %+v", st)
	}
	if v1, v2 := fixedVerdict(refReady), fixedVerdict(adopted); v1 != v2 {
		t.Errorf("adopted verdict %+v != freshly trained %+v", v2, v1)
	}

	refPartial, err := NewDetectorPool(0).await(partial)
	if err != nil {
		t.Fatal(err)
	}
	det, err := p.await(partial)
	if err != nil {
		t.Fatal(err)
	}
	if resumes, rejected := p.ckptResumes.Load(), p.ckptRejected.Load(); resumes != 0 || rejected != 0 {
		t.Errorf("resumes/rejected = %d/%d, want 0/0: the legacy checkpoint must not be read", resumes, rejected)
	}
	if det.Threshold() != refPartial.Threshold() {
		t.Errorf("threshold %v, want %v", det.Threshold(), refPartial.Threshold())
	}
	waitSaves(t, p, 1)
	ids, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{ready.ID(), partial.ID()}
	slices.Sort(want)
	if !slices.Equal(ids, want) {
		t.Errorf("store holds %v, want %v", ids, want)
	}
}
