package experiment

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"repro/internal/obs"
)

// TestTracedRunByteIdentical is the tracing layer's contract: spans
// and histograms observe the pipeline without perturbing it, so a
// traced run's CSV bytes (and normalized JSON) equal an untraced
// run's, while the recorder actually captured the span tree.
func TestTracedRunByteIdentical(t *testing.T) {
	untraced := runWithExecutor(t, &LocalExecutor{Parallel: 2}, nil)

	rec := obs.NewRecorder(obs.DefaultSpanCap)
	ctx := obs.WithRecorder(context.Background(), rec)
	sctx, suite := obs.Start(ctx, "suite")
	eng := New(WithModelSource(fixtureSource(t)), WithExecutor(&LocalExecutor{Parallel: 2}))
	traced, err := eng.Run(sctx, tinySpec())
	suite.End()
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := untraced.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("traced CSV diverged:\n--- untraced ---\n%s--- traced ---\n%s", a.Bytes(), b.Bytes())
	}

	normalizeTimings(untraced)
	normalizeTimings(traced)
	a.Reset()
	b.Reset()
	if err := untraced.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("traced normalized JSON diverged:\n--- untraced ---\n%s--- traced ---\n%s", a.Bytes(), b.Bytes())
	}

	// The trace really recorded the pipeline: a suite root, the bind
	// phase, per-cell spans, and craft work under cells.
	spans := rec.Spans()
	byName := map[string][]obs.Span{}
	byID := map[string]obs.Span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		byID[sp.ID] = sp
	}
	spec := tinySpec()
	if got := len(byName["suite"]); got != 1 {
		t.Fatalf("recorded %d suite spans, want 1", got)
	}
	if got := len(byName["cell"]); got != spec.CellCount() {
		t.Errorf("recorded %d cell spans, want %d", got, spec.CellCount())
	}
	if len(byName["craft"]) == 0 {
		t.Error("no craft spans recorded")
	}
	if len(byName["bind"]) != 1 {
		t.Errorf("recorded %d bind spans, want 1", len(byName["bind"]))
	}
	// Cells sit directly under the suite; their attack attribute names
	// the grid they belong to.
	suiteID := byName["suite"][0].ID
	perGrid := map[string]int{}
	for _, c := range byName["cell"] {
		if c.Parent != suiteID {
			t.Errorf("cell span parented under %q, want the suite span", byID[c.Parent].Name)
		}
		for _, a := range c.Attrs {
			if a.Key == "attack" {
				perGrid[a.Value]++
			}
		}
	}
	for _, name := range spec.Attacks {
		if perGrid[name] != len(spec.Eps) {
			t.Errorf("%d cell spans carry attack %q, want %d", perGrid[name], name, len(spec.Eps))
		}
	}
	for _, cr := range byName["craft"] {
		if byID[cr.Parent].Name != "cell" {
			t.Errorf("craft span parented under %q, want a cell span", byID[cr.Parent].Name)
		}
	}
	if rec.Dropped() != 0 {
		t.Errorf("ring dropped %d spans on a tiny suite", rec.Dropped())
	}
}

// TestSerialTraceSiblingsDisjoint: in a serial traced run no two spans
// with the same parent overlap in time, so every level of the tree
// reads as a sequence of phases.
func TestSerialTraceSiblingsDisjoint(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultSpanCap)
	ctx := obs.WithRecorder(context.Background(), rec)
	sctx, suite := obs.Start(ctx, "suite")
	eng := New(WithModelSource(fixtureSource(t)), WithExecutor(&LocalExecutor{Parallel: 1}))
	_, err := eng.Run(sctx, tinySpec())
	suite.End()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans", rec.Dropped())
	}

	byParent := map[string][]obs.Span{}
	for _, sp := range rec.Spans() {
		byParent[sp.Parent] = append(byParent[sp.Parent], sp)
	}
	for _, sibs := range byParent {
		sort.Slice(sibs, func(i, j int) bool { return sibs[i].Start.Before(sibs[j].Start) })
		for i := 1; i < len(sibs); i++ {
			prev, cur := sibs[i-1], sibs[i]
			if prev.Start.Add(prev.Dur).After(cur.Start) {
				t.Errorf("sibling spans overlap: %s %v ends after %s %v starts", prev.Name, prev.Attrs, cur.Name, cur.Attrs)
			}
		}
	}
}
