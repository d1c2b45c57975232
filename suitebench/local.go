package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/modelzoo"
	"repro/internal/obs"
)

// setupRuns is how many times a run measures its set-up; setup_s is
// the median.
const setupRuns = 5

// prepared is a workload's set-up: its spec, the reference CSV every
// suite must reproduce, and the measured set-up samples.
type prepared struct {
	spec  *experiment.Spec
	ref   []byte
	setup []float64
}

// prepareLocal trains the model if needed (untimed), loads the golden,
// measures model set-up in fresh child processes, and loads the model
// into this process.
func (b *bench) prepareLocal() (*prepared, error) {
	if err := ensureWeights(b.root); err != nil {
		return nil, err
	}
	s := specSeed(b.seed)
	spec, err := b.w.spec(b.root, s)
	if err != nil {
		return nil, err
	}
	ref, err := os.ReadFile(goldenPath(b.root, b.w.name, s))
	if err != nil {
		return nil, fmt.Errorf("no golden for %s Spec.Seed %d: %w", b.w.name, s, err)
	}
	setup, err := modelLoadSeconds(b.root, setupRuns)
	if err != nil {
		return nil, err
	}
	if _, err := modelzoo.Get(model); err != nil {
		return nil, err
	}
	return &prepared{spec: spec, ref: ref, setup: setup}, nil
}

// localSuite runs one untraced suite on a fresh cache and checks its
// CSV; it returns the wall and CPU seconds it took.
func localSuite(spec *experiment.Spec, ref []byte) (wall, cpu float64, err error) {
	cpu0 := cpuSeconds()
	start := time.Now()
	csv, err := engineSuite(context.Background(), spec, core.NewCache(core.CacheConfig{}))
	if err == nil {
		err = checkCSV(csv, ref)
	}
	return time.Since(start).Seconds(), cpuSeconds() - cpu0, err
}

// untraced measures the end-to-end metrics: closed loop, one client,
// one suite in flight, each suite on a fresh cache so every run does
// the full work.
func (b *bench) untraced() (*result, error) {
	if b.w.serve {
		return b.serveUntraced()
	}
	p, err := b.prepareLocal()
	if err != nil {
		return nil, err
	}
	t := &tally{}
	// One unmeasured suite first: pools, page faults and lazily built
	// tables settle before timing starts.
	_, _, err = localSuite(p.spec, p.ref)
	t.suite(err)
	s := samples{}
	err = b.loop(func(int) error {
		settle()
		wall, cpu, err := localSuite(p.spec, p.ref)
		t.suite(err)
		s.add("suite_s", wall)
		s.add("cpu_s", cpu)
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals := s.medians()
	vals["setup_s"] = median(p.setup)
	vals["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("%s: Spec.Seed %d, per-suite samples:\n", b.w.name, p.spec.Seed)
	s.summary(os.Stdout)
	return newResult(t, endToEnd, vals), nil
}

// traced gives the per-layer metrics. It first checks that the
// layer-by-layer run reproduces the engine's CSV and cache counts, then
// alternates untraced engine suites with traced layer-by-layer suites
// until the time is up; trace_overhead_ratio compares their medians.
func (b *bench) traced() (*result, error) {
	if b.w.serve {
		return b.serveTraced()
	}
	p, err := b.prepareLocal()
	if err != nil {
		return nil, err
	}
	t := &tally{}
	fresh := func() *core.Cache { return core.NewCache(core.CacheConfig{}) }
	d, err := checkDecomposition(context.Background(), p.spec, fresh)
	if d == nil && err != nil {
		return nil, err
	}
	if err == nil {
		err = checkCSV(d.csv, p.ref)
	}
	t.suite(err)

	s := samples{}
	var firstSpans []obs.Span
	err = b.loop(func(i int) error {
		var wall float64
		var err error
		settle()
		alloc, gcs := memDelta(func() { wall, _, err = localSuite(p.spec, p.ref) })
		t.suite(err)
		s.add("untraced_s", wall)
		s.add("go_alloc_mb", alloc)
		s.add("gc_cycles", gcs)

		rec := obs.NewRecorder(1 << 16)
		settle()
		start := time.Now()
		d, err := decompose(obs.WithRecorder(context.Background(), rec), p.spec, fresh())
		s.add("traced_s", time.Since(start).Seconds())
		if err == nil {
			err = checkCSV(d.csv, p.ref)
		}
		t.suite(err)
		if err != nil {
			return nil
		}
		for k, v := range d.layers {
			s.add(k, v)
		}
		if i == 0 {
			firstSpans = rec.Spans()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals := s.medians()
	vals["model_load_s"] = median(p.setup)
	vals["trace_overhead_ratio"] = vals["traced_s"] / vals["untraced_s"]
	if err := b.writeTrace(firstSpans); err != nil {
		return nil, err
	}
	b.checkSplit(t, vals)
	return newResult(t, perLayer, vals), nil
}

// checkSplit checks the split each workload exists to exercise:
// crafting dominates craft-iter, AxDNN forwards dominate victim-sweep.
func (b *bench) checkSplit(t *tally, v map[string]float64) {
	switch b.w.name {
	case "craft-iter":
		if v["craft_s"] <= v["predict_s"] {
			t.problem(fmt.Errorf("craft-iter: craft_s %.3f does not dominate predict_s %.3f", v["craft_s"], v["predict_s"]))
		}
	case "victim-sweep":
		if v["axnn_fwd_s"] <= v["nn_grad_s"]+v["nn_logits_s"] {
			t.problem(fmt.Errorf("victim-sweep: axnn_fwd_s %.3f does not dominate float nn time %.3f", v["axnn_fwd_s"], v["nn_grad_s"]+v["nn_logits_s"]))
		}
	}
}

// writeTrace writes the first traced suite's spans as a Chrome trace
// and prints their self-time table.
func (b *bench) writeTrace(spans []obs.Span) error {
	if len(spans) == 0 {
		return nil
	}
	dir := scratchDir(b.root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	printSelfTimes(os.Stdout, b.w.name+", first traced suite", spans)
	fmt.Println("chrome trace:", path)
	return nil
}
