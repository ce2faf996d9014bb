package core

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// batchFixture trains a small detector on the diff metric and draws
// nItems benign items spread over nLocs distinct claimed locations.
func batchFixture(t testing.TB, nItems, nLocs int) (*Detector, []BatchItem) {
	t.Helper()
	return batchFixtureMetric(t, DiffMetric{}, nItems, nLocs)
}

// batchFixtureMetric is batchFixture for an arbitrary metric.
func batchFixtureMetric(t testing.TB, metric Metric, nItems, nLocs int) (*Detector, []BatchItem) {
	t.Helper()
	model := paperModel()
	det, _, err := Train(model, metric, TrainConfig{
		Trials: 200, Percentile: 99, Seed: 41, KeepInField: true,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	items := make([]BatchItem, nItems)
	for i := range items {
		li := i % nLocs
		items[i] = BatchItem{
			Observation: model.SampleObservation(locs[li], groups[li], r),
			Location:    locs[li],
		}
	}
	return det, items
}

func TestCheckBatchMatchesSequentialCheck(t *testing.T) {
	det, items := batchFixture(t, 97, 13)
	got := det.CheckBatch(items)
	if len(got) != len(items) {
		t.Fatalf("got %d verdicts for %d items", len(got), len(items))
	}
	for i, it := range items {
		want := det.Check(it.Observation, it.Location)
		if got[i] != want {
			t.Errorf("item %d: batch %+v != sequential %+v", i, got[i], want)
		}
		if pooled := det.CheckPooled(it.Observation, it.Location); pooled != want {
			t.Errorf("item %d: CheckPooled %+v != Check %+v", i, pooled, want)
		}
	}
	// A second batch reuses pooled expectation buffers; results must not
	// be perturbed by recycled state.
	again := det.CheckBatch(items)
	for i := range again {
		if again[i] != got[i] {
			t.Errorf("item %d: pooled rerun %+v != first run %+v", i, again[i], got[i])
		}
	}
}

func TestCheckBatchEmptyAndInto(t *testing.T) {
	det, items := batchFixture(t, 8, 2)
	if got := det.CheckBatch(nil); len(got) != 0 {
		t.Errorf("empty batch returned %d verdicts", len(got))
	}
	dst := make([]Verdict, len(items))
	det.CheckBatchInto(dst, items)
	for i, it := range items {
		if want := det.Check(it.Observation, it.Location); dst[i] != want {
			t.Errorf("item %d: CheckBatchInto %+v != Check %+v", i, dst[i], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CheckBatchInto with mismatched dst should panic")
		}
	}()
	det.CheckBatchInto(make([]Verdict, 1), items)
}

// The acceptance target for the serving tentpole: batched scoring at
// batch size 64 must beat 64 sequential Check calls by >= 2x. Run as
//
//	go test ./internal/core -bench 'Check(Sequential|Batch)64' -benchtime 2s
//
// The batch draws its 64 items from 8 distinct claimed locations (the
// ladd workload: many sensors reporting against few claimed positions),
// so the per-location expectation is computed 8 times instead of 64.
func BenchmarkCheckSequential64(b *testing.B) {
	det, items := batchFixture(b, 64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			_ = det.Check(it.Observation, it.Location)
		}
	}
}

func BenchmarkCheckBatch64(b *testing.B) {
	det, items := batchFixture(b, 64, 8)
	dst := make([]Verdict, len(items))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.CheckBatchInto(dst, items)
	}
}

// BenchmarkCheck256 times the two scoring paths per metric over the
// same 256 items (8 claimed locations): one fresh Check per item, and
// the batch as served, with the expectation cache and its log-PMF
// tables.
func BenchmarkCheck256(b *testing.B) {
	for _, metric := range AllMetrics() {
		det, items := batchFixtureMetric(b, metric, 256, 8)
		dst := make([]Verdict, len(items))
		b.Run(metric.Name()+"/sequential", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, it := range items {
					_ = det.Check(it.Observation, it.Location)
				}
			}
		})
		b.Run(metric.Name()+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				det.CheckBatchInto(dst, items)
			}
		})
	}
}

// Single-worker variant: isolates the table/cache win from the sharding
// win (compare against BenchmarkCheck256/probability/batch).
func BenchmarkCheckBatchProb256Serial(b *testing.B) {
	det, items := batchFixtureMetric(b, ProbMetric{}, 256, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dst := make([]Verdict, len(items))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.CheckBatchInto(dst, items)
	}
}
