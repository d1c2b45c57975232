package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/store"
)

// root is the repository root as seen from this package's directory,
// where go test runs.
const root = ".."

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// TestOneByteChangeCaught is the output check's self-test: changing any
// single byte of a golden report must make the suite count as failed
// and the run incorrect.
func TestOneByteChangeCaught(t *testing.T) {
	for _, w := range workloads {
		golden, err := os.ReadFile(goldenPath(root, w.name, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCSV(golden, golden); err != nil {
			t.Fatalf("%s: golden does not match itself: %v", w.name, err)
		}
		for _, at := range []int{0, len(golden) / 2, len(golden) - 2, len(golden) - 1} {
			bad := append([]byte(nil), golden...)
			bad[at] ^= 1
			tl := &tally{}
			tl.suite(checkCSV(bad, golden))
			res := newResult(tl, endToEnd, nil)
			if res.Failed != 1 || res.Correct {
				t.Errorf("%s: one-byte change at %d not caught (failed %d, correct %v)", w.name, at, res.Failed, res.Correct)
			}
		}
		if checkCSV(golden[:len(golden)-1], golden) == nil {
			t.Errorf("%s: truncated report not caught", w.name)
		}
	}
}

// loadModel makes sure the source model's weights exist, training them
// with the two workers the goldens were made with.
func loadModel(t *testing.T) {
	t.Helper()
	if _, err := os.Stat(modelzoo.WeightPath(model)); err != nil {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	if _, err := modelzoo.Get(model); err != nil {
		t.Fatal(err)
	}
}

// smallSpec is a workload's spec for Spec.Seed 1 at a size that keeps
// the test quick.
func smallSpec(t *testing.T, w workload) *experiment.Spec {
	t.Helper()
	spec, err := w.spec(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Samples = 6
	return spec
}

// TestDecompositionFaithful checks, on every workload, that the traced
// layer-by-layer run assembles the engine's CSV byte for byte with the
// same cache hit and miss counts, so the timing wrappers change no
// cache key and no result.
func TestDecompositionFaithful(t *testing.T) {
	loadModel(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			spec := smallSpec(t, w)
			newCache := func() *core.Cache { return core.NewCache(core.CacheConfig{}) }
			if w.serve {
				st, err := store.Open(store.Options{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if _, err := engineSuite(context.Background(), spec, core.NewCache(core.CacheConfig{Disk: st})); err != nil {
					t.Fatal(err)
				}
				newCache = func() *core.Cache { return core.NewCache(core.CacheConfig{Disk: st}) }
			}
			rec := obs.NewRecorder(1 << 16)
			d, err := checkDecomposition(obs.WithRecorder(context.Background(), rec), spec, newCache)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Spans()) == 0 {
				t.Error("traced run recorded no spans")
			}
			if d.layers["craft_calls"] != float64(len(spec.Attacks)*len(spec.Eps)) {
				t.Errorf("craft_calls %g, want one per cell", d.layers["craft_calls"])
			}
			rows := d.layers["nn_grad_rows"] + d.layers["axnn_rows"]
			if w.serve && rows != 0 {
				t.Errorf("warm run computed %g rows, want 0", rows)
			}
			if !w.serve && (d.layers["nn_grad_rows"] == 0 || d.layers["axnn_rows"] == 0) {
				t.Errorf("cold run timed no work: %v", d.layers)
			}
		})
	}
}

// TestWarmGuard checks that the warm-serve guard refuses a suite whose
// artifacts were not all served from disk.
func TestWarmGuard(t *testing.T) {
	ok := core.CacheStats{CraftMisses: 37, DiskCraftHits: 36, PredMisses: 333, DiskPredHits: 333}
	if err := warmGuard(ok); err != nil {
		t.Fatalf("fully warm suite refused: %v", err)
	}
	for _, bad := range []core.CacheStats{
		{CraftMisses: 37, DiskCraftHits: 35, DiskCraftMisses: 1, PredMisses: 333, DiskPredHits: 333},
		{CraftMisses: 37, DiskCraftHits: 36, PredMisses: 333, DiskPredHits: 332, DiskPredMisses: 1},
		{CraftMisses: 37, DiskCraftHits: 36, PredMisses: 333, DiskPredHits: 333, DiskErrors: 1},
	} {
		if warmGuard(bad) == nil {
			t.Errorf("guard accepted %+v", bad)
		}
	}
}

// TestSelfTimes checks self time as duration minus the union of child
// intervals.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.Span{
		{ID: "p", Name: "parent", Start: at(0), Dur: 10 * time.Millisecond},
		{ID: "a", Parent: "p", Name: "child", Start: at(1), Dur: 4 * time.Millisecond},
		{ID: "b", Parent: "p", Name: "child", Start: at(3), Dur: 4 * time.Millisecond},
	}
	got := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		got[r.name] = r
	}
	if p := got["parent"]; p.self != 4*time.Millisecond || p.count != 1 {
		t.Errorf("parent self %v count %d, want 4ms 1", p.self, p.count)
	}
	if c := got["child"]; c.self != 8*time.Millisecond || c.total != 8*time.Millisecond || c.count != 2 {
		t.Errorf("child self %v total %v count %d, want 8ms 8ms 2", c.self, c.total, c.count)
	}
}

func TestSpecSeed(t *testing.T) {
	for _, seed := range []int64{-9, -1, 0, 1, 7, 8, 1 << 40} {
		s := specSeed(seed)
		if s < 1 || s > shippedSeeds {
			t.Errorf("specSeed(%d) = %d, outside the shipped seeds", seed, s)
		}
		if _, err := os.Stat(goldenPath(root, workloads[0].name, s)); err != nil {
			t.Errorf("no golden for specSeed(%d) = %d: %v", seed, s, err)
		}
	}
}
