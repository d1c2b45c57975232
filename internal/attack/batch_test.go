package attack

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// batchFixture packs the first n correctly-shaped test samples plus
// per-sample rng streams seeded the way core's harness seeds them.
func batchFixture(t *testing.T, n int) (GradModel, *tensor.T, []int, func() []*rand.Rand) {
	t.Helper()
	m, set := trainedModel(t)
	xs := make([]*tensor.T, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		xs[i] = set.X[i]
		labels[i] = set.Y[i]
	}
	rngs := func() []*rand.Rand {
		out := make([]*rand.Rand, n)
		for i := range out {
			out[i] = rand.New(rand.NewSource(int64(1000 + i)))
		}
		return out
	}
	return m, tensor.Stack(xs), labels, rngs
}

// perturbOne crafts a single sample as a batch of one.
func perturbOne(a Attack, m Model, x *tensor.T, label int, eps float64, rng *rand.Rand) *tensor.T {
	return a.PerturbBatch(m, tensor.Stack([]*tensor.T{x}), []int{label}, eps, []*rand.Rand{rng}).Row(0)
}

// TestPerturbBatchChunkInvariant is the property core.Cache's chunked
// crafting rests on: crafting 6 rows in one PerturbBatch call equals,
// bit for bit, crafting them in chunks of 1, 2 and 3 rows with the
// same per-row rng seeds. It covers every registered attack plus the
// Restart and EOT wrappers.
func TestPerturbBatchChunkInvariant(t *testing.T) {
	m, batch, labels, mkRngs := batchFixture(t, 6)
	atks := append(All(), NewRestart(NewPGD(Linf), 3), NewEOT(testSampler(m, "t"), Linf, 2), NewEOT(testSampler(m, "t"), L2, 2))
	for _, atk := range atks {
		eps := 1.0
		if atk.Norm() == Linf {
			eps = 0.2
		}
		whole := atk.PerturbBatch(m, batch, labels, eps, mkRngs())
		if !whole.SameShape(batch) {
			t.Fatalf("%s batch shape %v != %v", atk.Name(), whole.Shape, batch.Shape)
		}
		rngs := mkRngs()
		for _, span := range [][2]int{{0, 1}, {1, 3}, {3, 6}} {
			lo, hi := span[0], span[1]
			part := atk.PerturbBatch(m, batch.RowView(lo, hi).Clone(), labels[lo:hi], eps, rngs[lo:hi])
			want := whole.RowView(lo, hi).Data
			for j, v := range part.Data {
				if v != want[j] {
					t.Fatalf("%s rows [%d,%d) value %d: chunked %v != whole %v", atk.Name(), lo, hi, j, v, want[j])
				}
			}
		}
	}
}

// TestBatchNormBudgetsRespected: the batched paths must keep every
// row of the perturbation within the attack's norm budget.
func TestBatchNormBudgetsRespected(t *testing.T) {
	m, batch, labels, mkRngs := batchFixture(t, 5)
	const eps = 0.3
	for _, name := range []string{"FGM-l2", "BIM-linf", "PGD-l2", "PGD-linf", "RAU-linf"} {
		adv := ByName(name).PerturbBatch(m, batch, labels, eps, mkRngs())
		d := tensor.Sub(adv, batch)
		var norms []float64
		if ByName(name).Norm() == Linf {
			norms = tensor.LinfNormRows(d)
		} else {
			norms = tensor.L2NormRows(d)
		}
		for r, got := range norms {
			if got > eps*1.0001 {
				t.Errorf("%s row %d exceeded budget: %f > %f", name, r, got, eps)
			}
		}
	}
}

// TestBatchZeroEps: eps=0 must be the identity on the whole batch.
func TestBatchZeroEps(t *testing.T) {
	m, batch, labels, mkRngs := batchFixture(t, 4)
	for _, name := range []string{"PGD-linf", "CR-l2"} {
		adv := ByName(name).PerturbBatch(m, batch, labels, 0, mkRngs())
		for j := range batch.Data {
			if adv.Data[j] != batch.Data[j] {
				t.Fatalf("%s modified the batch at eps=0", name)
			}
		}
	}
}

// TestBatchInputNeverMutated: crafting must leave the input batch as
// it was.
func TestBatchInputNeverMutated(t *testing.T) {
	m, batch, labels, mkRngs := batchFixture(t, 4)
	orig := batch.Clone()
	for _, name := range []string{"FGM-linf", "PGD-l2", "RAU-linf"} {
		ByName(name).PerturbBatch(m, batch, labels, 0.3, mkRngs())
		for j := range batch.Data {
			if batch.Data[j] != orig.Data[j] {
				t.Fatalf("%s mutated its input batch", name)
			}
		}
	}
}
