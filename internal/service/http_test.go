package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := newTestManager(t, cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return srv, m
}

// TestHTTPSubmitStreamReport drives the full remote lifecycle through
// the Go client: submit, dedupe on resubmission, SSE progress with
// replay, and a report whose CSV bytes are identical to a local
// engine run — the acceptance criterion at the HTTP boundary.
func TestHTTPSubmitStreamReport(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st, created, err := c.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !created || st.ID == "" {
		t.Fatalf("first remote submission = (%+v, created=%v)", st, created)
	}

	var events []experiment.Event
	rep, err := c.Wait(ctx, st.ID, func(ev experiment.Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Kind != experiment.SuiteStarted {
		t.Fatalf("SSE stream must start with suite-started, got %d events", len(events))
	}
	if last := events[len(events)-1]; last.Kind != experiment.SuiteFinished || last.Err != "" {
		t.Fatalf("SSE stream must end with a clean suite-finished, got %+v", last)
	}
	for _, ev := range events {
		if ev.Job != st.ID {
			t.Fatalf("SSE event lost its job tag: %+v", ev)
		}
	}

	// Resubmitting the identical spec dedupes to the same finished job.
	st2, created, err := c.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if created || st2.ID != st.ID || st2.State != StateDone {
		t.Fatalf("remote resubmission = (%+v, created=%v)", st2, created)
	}

	// The remote report matches a local engine run cell for cell, and
	// the served CSV is byte-identical to the local encoder's output.
	ref, err := experiment.New(experiment.WithModelSource(fixtureSource(t))).Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Grids {
		if !reflect.DeepEqual(rep.Grids[i].Acc, ref.Grids[i].Acc) {
			t.Fatalf("remote report diverged on %s", ref.Grids[i].Attack)
		}
	}
	remoteCSV, err := c.ReportRaw(ctx, st.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	var localCSV bytes.Buffer
	if err := ref.WriteCSV(&localCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteCSV, localCSV.Bytes()) {
		t.Fatalf("served CSV is not byte-identical to the local encoder:\n--- remote ---\n%s--- local ---\n%s", remoteCSV, localCSV.Bytes())
	}

	// A late SSE subscriber replays the finished job's whole history.
	var replay []experiment.Event
	if err := c.Events(ctx, st.ID, func(ev experiment.Event) { replay = append(replay, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(events) {
		t.Fatalf("late SSE replay has %d events, live stream had %d", len(replay), len(events))
	}

	// List and status agree.
	jobs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID || jobs[0].State != StateDone {
		t.Fatalf("remote list = %+v", jobs)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	srv, _ := newTestServer(t, Config{Workers: 1, ModelSource: gatedSource(t, gate)})
	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Unknown jobs are 404 everywhere.
	for _, path := range []string{"/v1/suites/feedfeed", "/v1/suites/feedfeed/report", "/v1/suites/feedfeed/events"} {
		if code, body := get(path); code != http.StatusNotFound || !strings.Contains(body, "no such job") {
			t.Fatalf("GET %s = %d %q, want 404", path, code, body)
		}
	}

	// Invalid specs are 400 with the validation message.
	resp, err := http.Post(srv.URL+"/v1/suites", "application/json", strings.NewReader(`{"model":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "attack") {
		t.Fatalf("bad spec POST = %d %q", resp.StatusCode, body)
	}
	// So is malformed JSON.
	resp, err = http.Post(srv.URL+"/v1/suites", "application/json", strings.NewReader(`{"mode`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed POST = %d", resp.StatusCode)
	}

	// An unfinished job's report is 409, and the client surfaces it.
	st, _, err := c.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/v1/suites/" + st.ID + "/report"); code != http.StatusConflict {
		t.Fatalf("unfinished report = %d, want 409", code)
	}
	if _, err := c.Report(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "not finished") {
		t.Fatalf("client Report on unfinished job = %v", err)
	}
	if code, _ := get("/v1/suites/" + st.ID + "/report?format=yaml"); code != http.StatusBadRequest {
		t.Fatal("unknown report formats must be 400")
	}

	// DELETE cancels; the cancelled report is 410.
	cancelled, err := c.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != StateCancelled && cancelled.State != StateRunning {
		t.Fatalf("DELETE state = %s", cancelled.State)
	}
	// Unblock the gated model source so the cancelled run can unwind.
	openGate()
	waitTerminal := func(id string) {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			st, err := c.Status(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State.Terminal() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("job %s never terminal", id)
	}
	waitTerminal(st.ID)
	if code, _ := get("/v1/suites/" + st.ID + "/report"); code != http.StatusGone {
		t.Fatalf("cancelled report = %d, want 410", code)
	}
	if _, err := c.Wait(ctx, st.ID, nil); err == nil || !strings.Contains(err.Error(), string(StateCancelled)) {
		t.Fatalf("client Wait on cancelled job = %v", err)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	srv, m := newTestServer(t, Config{Workers: 1})
	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, _, err := c.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"axserve_cache_craft_hits_total",
		"axserve_cache_craft_misses_total",
		"axserve_cache_pred_misses_total",
		"axserve_cache_craft_evictions_total",
		"axserve_cache_craft_bytes",
		"axserve_cache_disk_craft_hits_total",
		"axserve_cache_disk_pred_hits_total",
		"axserve_cache_disk_errors_total",
		"axserve_store_gc_evicted_records_total",
		"axserve_store_corrupt_records_total",
		"axserve_store_keys",
		"axserve_store_bytes",
		// Scheduler counters: the finished 4-cell suite ran entirely on
		// this node's local executor; remote and fallback are pinned at
		// zero on a single-node manager.
		"axserve_sched_cells_local_total 4",
		"axserve_sched_cells_remote_total 0",
		"axserve_sched_cells_fallback_total 0",
		`axserve_jobs{state="done"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// The finished 4-cell suite crafted 3 distinct batches (clean row
	// shared): misses are visible to scrapers.
	if !strings.Contains(metrics, "axserve_cache_craft_misses_total 3") {
		t.Fatalf("metrics miss counter wrong:\n%s", metrics)
	}
	// This manager runs memory-only: the disk tier counters must exist
	// for scrapers but stay pinned at zero.
	if !strings.Contains(metrics, "axserve_cache_disk_craft_misses_total 0") {
		t.Fatalf("memory-only manager has nonzero disk counters:\n%s", metrics)
	}
}
