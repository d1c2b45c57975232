package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// warmStoreMaxBytes mirrors axserve's default -disk-mb bound on the
// cache tier.
const warmStoreMaxBytes = 512 << 20

// servePrep is the warm-serve precondition: a disk store warmed by one
// cold run of the spec in a child process, whose CSV is the reference.
type servePrep struct {
	*prepared
	runDir, warmDir string
	modelLoad       float64
}

// prepareServe warms the store (untimed: a precondition, not set-up)
// and loads the model into this process.
func (b *bench) prepareServe(t *tally) (*servePrep, error) {
	if err := ensureWeights(b.root); err != nil {
		return nil, err
	}
	s := specSeed(b.seed)
	spec, err := b.w.spec(b.root, s)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(scratchDir(b.root), fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	p := &servePrep{runDir: runDir, warmDir: filepath.Join(runDir, "warm")}
	coldPath := filepath.Join(runDir, "cold.csv")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	if _, err := runSelf(b.root, "warm", "--workload", b.w.name, "--seed", strconv.FormatInt(b.seed, 10),
		"--warm-dir", p.warmDir, "--csv-out", coldPath); err != nil {
		os.RemoveAll(runDir)
		return nil, err
	}
	cold, err := os.ReadFile(coldPath)
	if err != nil {
		os.RemoveAll(runDir)
		return nil, err
	}
	// The cold CSV is the warm suites' reference; it must itself match
	// the committed golden.
	golden, err := os.ReadFile(goldenPath(b.root, b.w.name, s))
	if err == nil {
		err = checkCSV(cold, golden)
	}
	t.suite(err)
	start := time.Now()
	if _, err := modelzoo.Get(model); err != nil {
		os.RemoveAll(runDir)
		return nil, err
	}
	p.modelLoad = time.Since(start).Seconds()
	p.prepared = &prepared{spec: spec, ref: cold}
	return p, nil
}

// rig is one fresh serving stack: the warm cache tier reopened, a
// fresh WAL, a manager and a loopback HTTP server. The WAL does not
// fsync each put (axserve's does): on a shared disk, fsync latency
// drowns every other cost of the suite in run-to-run noise. wal_puts
// still counts the puts.
type rig struct {
	warm, wal *store.Store
	walDir    string
	cache     *core.Cache
	mgr       *service.Manager
	srv       *http.Server
	served    chan error
	client    *service.Client
	storeOpen time.Duration
}

// openRig brings a serving stack up; the time it takes is the
// workload's set-up.
func openRig(warmDir, walDir string) (*rig, time.Duration, error) {
	start := time.Now()
	warm, err := store.Open(store.Options{Dir: warmDir, MaxBytes: warmStoreMaxBytes})
	if err != nil {
		return nil, 0, err
	}
	r := &rig{warm: warm, walDir: walDir, storeOpen: time.Since(start), served: make(chan error, 1)}
	if r.wal, err = store.Open(store.Options{Dir: walDir, Sync: false}); err != nil {
		warm.Close()
		return nil, 0, err
	}
	r.cache = core.NewCache(core.CacheConfig{Disk: warm})
	r.mgr = service.NewManager(service.Config{Workers: 1, Cache: r.cache, Log: r.wal})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.mgr.Close(context.Background())
		r.wal.Close()
		warm.Close()
		return nil, 0, err
	}
	r.srv = &http.Server{Handler: service.NewHandler(r.mgr)}
	go func() { r.served <- r.srv.Serve(ln) }()
	r.client = service.NewClient("http://" + ln.Addr().String())
	return r, time.Since(start), nil
}

// close stops the server (waiting for it), drains the manager, closes
// both stores and deletes the WAL.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{r.srv.Shutdown(ctx)}
	if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	http.DefaultClient.CloseIdleConnections()
	errs = append(errs, r.mgr.Close(ctx), r.wal.Close(), r.warm.Close(), os.RemoveAll(r.walDir))
	return errors.Join(errs...)
}

// suite submits the spec, waits for the job and fetches its CSV, and
// checks that the job was created (not deduplicated), that the report
// matches ref, and that the warm store served every artifact. It
// returns the wall and CPU seconds from submit to the verified report.
func (r *rig) suite(ctx context.Context, p *servePrep) (wall, cpu float64, st service.JobStatus, err error) {
	cpu0 := cpuSeconds()
	start := time.Now()
	sctx, sp := obs.Start(ctx, "bench/submit")
	st, created, err := r.client.Submit(sctx, p.spec)
	sp.End()
	if err == nil && !created {
		err = fmt.Errorf("job %s was deduplicated, not created", st.ID)
	}
	var csv []byte
	if err == nil {
		wctx, sp := obs.Start(ctx, "bench/wait")
		st, err = r.client.WaitDone(wctx, st.ID, nil)
		sp.End()
	}
	if err == nil {
		fctx, sp := obs.Start(ctx, "bench/fetch")
		csv, err = r.client.ReportRaw(fctx, st.ID, "csv")
		sp.End()
	}
	if err == nil {
		err = checkCSV(csv, p.ref)
	}
	wall, cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	if err == nil {
		err = warmGuard(r.cache.Stats())
	}
	return wall, cpu, st, err
}

// warmGuard fails unless the warm store served every artifact: no
// crafted batch or prediction was missing from disk, so nothing was
// crafted and no victim ran. The one memory miss that never touches
// disk is the stacked clean batch.
func warmGuard(s core.CacheStats) error {
	switch {
	case s.DiskCraftMisses != 0 || s.DiskPredMisses != 0 || s.DiskErrors != 0:
		return fmt.Errorf("warm-serve: disk tier missed (craft %d, pred %d, errors %d); disk_hit_ratio is not 1",
			s.DiskCraftMisses, s.DiskPredMisses, s.DiskErrors)
	case s.PredMisses != s.DiskPredHits || s.CraftMisses-s.DiskCraftHits > 1:
		return fmt.Errorf("warm-serve: memory misses not served from disk (%+v)", s)
	}
	return nil
}

// serveRun prepares the warm store and loops over fresh serving stacks
// until the time is up; each iteration calls fn with the open rig.
func (b *bench) serveRun(t *tally, fn func(i int, r *rig, setup time.Duration, p *servePrep) error) (*servePrep, error) {
	p, err := b.prepareServe(t)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.runDir)
	iter := func(i int) error {
		settle()
		r, setup, err := openRig(p.warmDir, filepath.Join(p.runDir, fmt.Sprintf("wal-%d", i)))
		if err != nil {
			return err
		}
		ferr := fn(i, r, setup, p)
		return errors.Join(ferr, r.close())
	}
	// One unmeasured iteration first, as in the local workloads.
	if err := iter(-1); err != nil {
		return nil, err
	}
	return p, b.loop(iter)
}

func (b *bench) serveUntraced() (*result, error) {
	s := samples{}
	t := &tally{}
	_, err := b.serveRun(t, func(i int, r *rig, setup time.Duration, p *servePrep) error {
		wall, cpu, _, err := r.suite(context.Background(), p)
		t.suite(err)
		if i >= 0 {
			s.add("suite_s", wall)
			s.add("cpu_s", cpu)
			s.add("setup_s", setup.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals := s.medians()
	vals["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("%s: Spec.Seed %d, per-suite samples:\n", b.w.name, specSeed(b.seed))
	s.summary(os.Stdout)
	return newResult(t, endToEnd, vals), nil
}

// serveTraced alternates untraced and traced serving iterations, each
// on a fresh stack. The traced ones record the benchmark's own spans
// around submit, wait and fetch, import the server's span tree from
// GET /v1/suites/{id}/trace, and read the store and cache counters as
// deltas. Before the loop, a layer-by-layer run over the warm store
// checks the decomposition and that no crafting and no victim forward
// happen.
func (b *bench) serveTraced() (*result, error) {
	s := samples{}
	t := &tally{}
	var firstSpans []obs.Span
	p, err := b.serveRun(t, func(i int, r *rig, setup time.Duration, p *servePrep) error {
		if i < 0 {
			return b.checkWarmLayers(t, r, p, s)
		}
		if i%2 == 0 {
			var wall float64
			var err error
			alloc, gcs := memDelta(func() { wall, _, _, err = r.suite(context.Background(), p) })
			t.suite(err)
			s.add("untraced_s", wall)
			s.add("go_alloc_mb", alloc)
			s.add("gc_cycles", gcs)
			return nil
		}
		spans, err := tracedServe(t, r, p, s)
		if firstSpans == nil {
			firstSpans = spans
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	vals := s.medians()
	vals["model_load_s"] = p.modelLoad
	vals["trace_overhead_ratio"] = vals["traced_s"] / vals["untraced_s"]
	if err := b.writeTrace(firstSpans); err != nil {
		return nil, err
	}
	if v := vals["disk_hit_ratio"]; v != 1 {
		t.problem(fmt.Errorf("warm-serve: disk_hit_ratio %g, want 1", v))
	}
	return newResult(t, perLayer, vals), nil
}

// tracedServe runs one traced suite on r and records the service and
// store metrics; it returns the benchmark's spans with the server's
// span tree imported.
func tracedServe(t *tally, r *rig, p *servePrep, s samples) ([]obs.Span, error) {
	rec := obs.NewRecorder(1 << 16)
	ctx := obs.WithRecorder(context.Background(), rec)
	w0, l0 := r.warm.Stats(), r.wal.Stats()
	wall, _, st, err := r.suite(ctx, p)
	t.suite(err)
	if err != nil {
		return nil, nil
	}
	w1, l1 := r.warm.Stats(), r.wal.Stats()
	s.add("traced_s", wall)
	s.add("store_open_s", r.storeOpen.Seconds())
	s.add("queue_wait_ms", ms(st.Started.Sub(st.Submitted)))
	s.add("job_run_s", st.Finished.Sub(st.Started).Seconds())
	for _, sp := range rec.Spans() {
		switch sp.Name {
		case "bench/submit":
			s.add("submit_ms", ms(sp.Dur))
		case "bench/fetch":
			s.add("report_fetch_ms", ms(sp.Dur))
		}
	}
	s.add("store_gets", float64(w1.Hits+w1.Misses-w0.Hits-w0.Misses))
	s.add("store_puts", float64(w1.Puts-w0.Puts+l1.Puts-l0.Puts))
	s.add("store_put_mb", float64(w1.BytesWritten-w0.BytesWritten+l1.BytesWritten-l0.BytesWritten)/(1<<20))
	s.add("wal_puts", float64(l1.Puts-l0.Puts))
	cs := r.cache.Stats()
	s.add("disk_hit_ratio", ratio(int(cs.DiskCraftHits+cs.DiskPredHits),
		int(cs.DiskCraftHits+cs.DiskPredHits+cs.DiskCraftMisses+cs.DiskPredMisses)))

	server, err := serverSpans(r.client, st)
	if err != nil {
		return nil, err
	}
	var diskGet time.Duration
	for _, sp := range server {
		if sp.Name == "disk-get" {
			diskGet += sp.Dur
		}
	}
	s.add("disk_get_s", diskGet.Seconds())
	rec.Import("axserve", server)
	return rec.Spans(), nil
}

// checkWarmLayers runs the spec layer by layer over the warm store,
// checks it against the engine, and records the core-layer metrics;
// the warm path must do zero float-network and zero AxDNN rows.
func (b *bench) checkWarmLayers(t *tally, r *rig, p *servePrep, s samples) error {
	fresh := func() *core.Cache { return core.NewCache(core.CacheConfig{Disk: r.warm}) }
	d, err := checkDecomposition(context.Background(), p.spec, fresh)
	if d == nil && err != nil {
		return err
	}
	if err == nil {
		err = checkCSV(d.csv, p.ref)
	}
	t.suite(err)
	// Bytes read from the store: one more layer-by-layer pass, alone,
	// measured as the read system calls it makes.
	c := fresh()
	r0 := readBytes()
	d, err = decompose(context.Background(), p.spec, c)
	r1 := readBytes()
	if err == nil {
		err = checkCSV(d.csv, p.ref)
	}
	t.suite(err)
	if err != nil {
		return nil
	}
	if err := warmGuard(c.Stats()); err != nil {
		t.problem(err)
	}
	for _, k := range []string{"nn_grad_rows", "nn_logits_rows", "axnn_rows"} {
		if d.layers[k] != 0 {
			t.problem(fmt.Errorf("warm-serve: %s is %g, want 0", k, d.layers[k]))
		}
	}
	for k, v := range d.layers {
		s.add(k, v)
	}
	if r0 >= 0 && r1 >= 0 {
		s.add("store_get_mb", float64(r1-r0)/(1<<20))
	}
	return nil
}

// serverSpans fetches the job's span tree from the trace endpoint and
// converts the Chrome events back to spans, anchored at the job's start.
func serverSpans(c *service.Client, st service.JobStatus) ([]obs.Span, error) {
	raw, err := c.TraceRaw(context.Background(), st.ID)
	if err != nil {
		return nil, err
	}
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		return nil, fmt.Errorf("decoding job trace: %w", err)
	}
	var out []obs.Span
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, _ := ev.Args["span"].(string)
		parent, _ := ev.Args["parent"].(string)
		out = append(out, obs.Span{
			ID:     id,
			Parent: parent,
			Name:   ev.Name,
			Start:  st.Started.Add(time.Duration(ev.Ts) * time.Microsecond),
			Dur:    time.Duration(ev.Dur) * time.Microsecond,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("job %s has an empty trace", st.ID)
	}
	return out, nil
}
