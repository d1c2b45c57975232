// Command suitebench is the repository's end-to-end benchmark: it runs
// one named workload of robustness suites for a fixed time, checks
// every report byte for byte against its reference, and prints the
// end-to-end metrics (--trace 0) or a per-layer breakdown (--trace 1)
// as one JSON object on the last line of standard output.
//
// It drives the layers through their public Go APIs only (experiment,
// core, modelzoo, service, store, obs) and changes no program code.
// See README.md for the workloads, the load model and the metric to
// layer mapping.
//
// Usage, from the repository root:
//
//	bash suitebench/run.sh --workload craft-iter --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// maxProcs caps GOMAXPROCS (and so the within-cell worker count, which
// defaults to it) at the core count the benchmark is sized for.
const maxProcs = 2

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed; selects the suites' Spec.Seed")
		seconds  = flag.Float64("seconds", 25, "measured run length in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
		child    = flag.String("child", "", "internal: run one child task (load, train, warm)")
		warmDir  = flag.String("warm-dir", "", "internal: store directory the warm child fills")
		csvOut   = flag.String("csv-out", "", "internal: file the warm child writes its cold CSV to")
		update   = flag.Bool("update-goldens", false, "regenerate the committed golden CSVs for every shipped seed")
	)
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fail(err)
	}
	if *child != "" {
		if err := runChild(root, *child, *workload, *seed, *warmDir, *csvOut); err != nil {
			fail(err)
		}
		return
	}
	if *update {
		runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
		if err := updateGoldens(root); err != nil {
			fail(err)
		}
		return
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %g", *seconds))
	}
	runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))
	b := &bench{root: root, w: w, seed: *seed, seconds: *seconds}
	var res *result
	if *trace != 0 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fail(err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// repoRoot returns the working directory after checking that it is the
// root of a full checkout: the benchmark reads specs, goldens and model
// weights from it and builds nothing outside it.
func repoRoot() (string, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, p := range []string{"go.mod", "testdata/specs/fig4.json", "suitebench/golden"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return "", fmt.Errorf("not the root of a full checkout: %w", err)
		}
	}
	return root, nil
}

// scratchDir is where runs keep their stores and trace artifacts. It
// sits under the ignored build directory of the checkout.
func scratchDir(root string) string {
	return filepath.Join(root, ".bench_build", "suitebench")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "suitebench:", err)
	os.Exit(1)
}

// metricDef names one reported metric and its unit. endToEnd and
// perLayer are the catalogue BENCHMARK.json lists; the test keeps the
// two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"suite_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"plan_ms", "ms"},
	{"model_load_s", "s"},
	{"victim_compile_s", "s"},
	{"craft_s", "s"},
	{"craft_calls", "count"},
	{"craft_hit_ratio", "ratio"},
	{"attack_self_s", "s"},
	{"nn_grad_s", "s"},
	{"nn_grad_rows", "count"},
	{"nn_logits_s", "s"},
	{"nn_logits_rows", "count"},
	{"predict_s", "s"},
	{"predict_calls", "count"},
	{"predict_hit_ratio", "ratio"},
	{"axnn_fwd_s", "s"},
	{"axnn_rows", "count"},
	{"axnn_rows_per_s", "rows/s"},
	{"store_open_s", "s"},
	{"store_gets", "count"},
	{"store_get_mb", "MB"},
	{"disk_get_s", "s"},
	{"disk_hit_ratio", "ratio"},
	{"store_puts", "count"},
	{"store_put_mb", "MB"},
	{"wal_puts", "count"},
	{"submit_ms", "ms"},
	{"queue_wait_ms", "ms"},
	{"job_run_s", "s"},
	{"report_fetch_ms", "ms"},
	{"go_alloc_mb", "MB"},
	{"gc_cycles", "count"},
	{"trace_overhead_ratio", "ratio"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict for one run: the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult fills a result with exactly the catalogue's metrics, in
// their units; values missing from vals report 0.
func newResult(t *tally, defs []metricDef, vals map[string]float64) *result {
	r := &result{
		Correct:   t.failed == 0 && len(t.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

// print writes a human-readable table, then the JSON result as the last
// line.
func (r *result) print(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-22s %14.6g %s\n", n, m.Value, m.Unit)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(f, "%-22s %14.6g (%d of %d suites errored or mismatched)\n", "error_rate", errRate, r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(f, string(line))
}

// tally counts attempted and failed suites and collects check failures
// (guards, decomposition mismatches) that make a run incorrect even
// when every report matched.
type tally struct {
	attempted int
	failed    int
	problems  []string
}

// suite records one suite's outcome; a non-nil err (run error or report
// mismatch) counts it as failed.
func (t *tally) suite(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.problem(err)
	}
}

// problem records a failed check and reports it on standard error.
func (t *tally) problem(err error) {
	t.problems = append(t.problems, err.Error())
	fmt.Fprintln(os.Stderr, "suitebench: CHECK FAILED:", err)
}
