package nn_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/modelzoo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenchmarkFloatConvVsRef is the float crafting path's regression gate:
// LeNet-5 LossGradBatch at batch 10 (one attack gradient step of the
// suite benchmark's batch) through the retained reference conv kernels
// and through the tiled ones. Rounds interleave reference then tiled,
// and the median per-round cost ratio is reported as "paired-rel",
// which cmd/axbench gates against BENCH_axnn.json. Parity between the
// two is pinned bit for bit by TestConvMatchesRef.
func BenchmarkFloatConvVsRef(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	const batchN = 10
	xs := tensor.Stack(m.Test.X[:batchN])
	labels := m.Test.Y[:batchN]
	ref := nn.RefNetwork(m.Net)
	pairedRel(b,
		func() { ref.LossGradBatch(xs, labels) },
		func() { m.Net.LossGradBatch(xs, labels) })
}

// pairedRel times ref and opt back to back in every benchmark
// iteration and reports the median per-round opt/ref cost ratio as a
// "paired-rel" metric, plus the reciprocal speedup. It mirrors the
// root package's helper of the same name.
func pairedRel(b *testing.B, ref, opt func()) {
	ref()
	opt()
	rels := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		ref()
		dRef := time.Since(t0)
		t1 := time.Now()
		opt()
		dOpt := time.Since(t1)
		rels = append(rels, float64(dOpt)/float64(dRef))
	}
	b.StopTimer()
	sort.Float64s(rels)
	med := rels[len(rels)/2]
	if n := len(rels); n%2 == 0 {
		med = (rels[n/2-1] + rels[n/2]) / 2
	}
	b.ReportMetric(med, "paired-rel")
	b.ReportMetric(1/med, "x-speedup")
}
