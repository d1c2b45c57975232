package experiment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// normalizeTimings strips the execution-history artifacts from a
// report's cell timings. CacheHit and ElapsedMS depend on scheduling
// (serially, PGD@0 hits the clean batch FGM@0 just crafted; with four
// workers both may miss concurrently), so byte-identity across
// executors is asserted on the normalized JSON; the CSV carries no
// timings and must match raw.
func normalizeTimings(rep *Report) {
	for i := range rep.Cells {
		rep.Cells[i].CacheHit = false
		rep.Cells[i].ElapsedMS = 0
	}
}

func runWithExecutor(t *testing.T, x Executor, onEvent func(Event)) *Report {
	t.Helper()
	opts := []Option{WithModelSource(fixtureSource(t)), WithExecutor(x)}
	if onEvent != nil {
		opts = append(opts, WithProgress(onEvent))
	}
	rep, err := New(opts...).Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestExecutorMergeEquivalence is the tentpole's acceptance criterion
// at the executor level: the serial path and a 4-worker parallel run
// of the same plan produce byte-identical CSV (golden-pinned) and
// byte-identical normalized JSON, and the scheduler counters account
// for every cell. Regenerate the golden with
//
//	go test ./internal/experiment -run TestExecutorMergeEquivalence -update
//
// (needed once per architecture class if FP contraction differs).
func TestExecutorMergeEquivalence(t *testing.T) {
	serial := runWithExecutor(t, &LocalExecutor{Parallel: 1}, nil)

	var sc SchedCounters
	par := runWithExecutor(t, &LocalExecutor{Parallel: 4, Counters: &sc}, nil)

	var serialCSV, parCSV bytes.Buffer
	if err := serial.WriteCSV(&serialCSV); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&parCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialCSV.Bytes(), parCSV.Bytes()) {
		t.Fatalf("parallel CSV diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", serialCSV.Bytes(), parCSV.Bytes())
	}

	golden := filepath.Join("testdata", "executor_golden.csv")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, serialCSV.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialCSV.Bytes(), want) {
		t.Fatalf("CSV drifted from the golden fixture:\n--- golden ---\n%s--- got ---\n%s", want, serialCSV.Bytes())
	}

	normalizeTimings(serial)
	normalizeTimings(par)
	var serialJSON, parJSON bytes.Buffer
	if err := serial.WriteJSON(&serialJSON); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteJSON(&parJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON.Bytes(), parJSON.Bytes()) {
		t.Fatalf("normalized JSON diverged:\n--- serial ---\n%s--- parallel ---\n%s", serialJSON.Bytes(), parJSON.Bytes())
	}

	// Every cell ran locally.
	if want := int64(tinySpec().CellCount()); sc.Local.Load() != want {
		t.Fatalf("scheduler counted %d local cells, want %d", sc.Local.Load(), want)
	}
	if sc.Remote.Load() != 0 || sc.Fallback.Load() != 0 {
		t.Fatal("local executor must not touch the sharded counters")
	}
}

// TestExecutorSerialPlanOrder: a serial run starts its cells in plan
// order, 1..Total, and finishes each before the next starts.
func TestExecutorSerialPlanOrder(t *testing.T) {
	var started, finished []int
	runWithExecutor(t, &LocalExecutor{Parallel: 1}, func(ev Event) {
		switch ev.Kind {
		case CellStarted:
			if len(started) != len(finished) {
				t.Errorf("cell %d started while cell %d was still running", ev.Cell, started[len(started)-1])
			}
			started = append(started, ev.Cell)
		case CellFinished:
			finished = append(finished, ev.Cell)
		}
	})
	total := tinySpec().CellCount()
	if len(started) != total || len(finished) != total {
		t.Fatalf("started %d and finished %d cells, want %d each", len(started), len(finished), total)
	}
	for i := range started {
		if started[i] != i+1 || finished[i] != i+1 {
			t.Fatalf("serial run started cells %v and finished %v, want 1..%d in order", started, finished, total)
		}
	}
}

// TestExecutorParallelEventIndices: whatever order four workers finish
// cells in, every event carries the cell's plan position — each index
// exactly once per started/finished kind, all advertising the plan's
// Total — so concurrent progress streams stay coherent.
func TestExecutorParallelEventIndices(t *testing.T) {
	var (
		mu     sync.Mutex
		events []Event
	)
	runWithExecutor(t, &LocalExecutor{Parallel: 4}, func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	total := tinySpec().CellCount()
	started := map[int]int{}
	finished := map[int]int{}
	for _, ev := range events {
		switch ev.Kind {
		case CellStarted:
			started[ev.Cell]++
		case CellFinished:
			finished[ev.Cell]++
		default:
			continue
		}
		if ev.Cells != total {
			t.Fatalf("event advertises %d cells, want plan total %d: %+v", ev.Cells, total, ev)
		}
	}
	for idx := 1; idx <= total; idx++ {
		if started[idx] != 1 || finished[idx] != 1 {
			t.Fatalf("plan index %d: started %d times, finished %d times, want exactly once each",
				idx, started[idx], finished[idx])
		}
	}
	if len(started) != total || len(finished) != total {
		t.Fatalf("events covered %d/%d started and %d/%d finished indices", len(started), total, len(finished), total)
	}
}

// TestExecutorParallelCancellation: cancelling a 4-worker run returns
// ctx.Err() promptly and leaks no worker goroutines.
func TestExecutorParallelCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	finished := 0
	eng := New(
		WithModelSource(fixtureSource(t)),
		WithExecutor(&LocalExecutor{Parallel: 4}),
		WithProgress(func(ev Event) {
			if ev.Kind == CellFinished {
				mu.Lock()
				if finished++; finished == 1 {
					cancel()
				}
				mu.Unlock()
			}
		}),
	)
	rep, err := eng.Run(ctx, tinySpec())
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled parallel Run returned (%v, %v), want (nil, context.Canceled)", rep, err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked by cancelled parallel run: %d before, %d after", before, n)
	}
}
