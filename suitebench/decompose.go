package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// engineSuite runs spec through the experiment engine over cache — the
// path users take — and returns the report's CSV.
func engineSuite(ctx context.Context, spec *experiment.Spec, cache *core.Cache) ([]byte, error) {
	rep, err := experiment.New(experiment.WithCache(cache)).Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	return reportCSV(rep)
}

// layerAcct accumulates time and rows measured by the timing wrappers.
// Crafting and prediction fan out over worker goroutines, so the
// durations are busy time summed across workers and can exceed wall
// time.
type layerAcct struct {
	gradNS, gradRows     atomic.Int64
	logitsNS, logitsRows atomic.Int64
	attackSelfNS         atomic.Int64
	axnnNS, axnnRows     atomic.Int64
}

// timedAttack forwards to a batch attack, timing each PerturbBatch and
// handing it a timedSource so the float network calls under it are
// timed too. ConfigKey forwards, so crafted-batch cache keys are the
// unwrapped attack's.
type timedAttack struct {
	attack.Attack
	batch attack.BatchAttack
	acct  *layerAcct
}

func (a *timedAttack) ConfigKey() string { return attack.ConfigKey(a.Attack) }

func (a *timedAttack) PerturbBatch(m attack.Model, xs *tensor.T, labels []int, eps float64, rngs []*rand.Rand) *tensor.T {
	g, ok := m.(attack.BatchGradModel)
	if !ok {
		return a.batch.PerturbBatch(m, xs, labels, eps, rngs)
	}
	src := &timedSource{m: g, acct: a.acct}
	start := time.Now()
	out := a.batch.PerturbBatch(src, xs, labels, eps, rngs)
	a.acct.attackSelfNS.Add(int64(time.Since(start)) - src.nnNS)
	return out
}

// timedSource forwards the float source network's inference and
// gradient calls, timing them. One instance serves one PerturbBatch
// call, which makes its calls from a single goroutine.
type timedSource struct {
	m    attack.BatchGradModel
	acct *layerAcct
	nnNS int64 // nn time under this PerturbBatch call
}

func (s *timedSource) logits(start time.Time, rows int) {
	d := int64(time.Since(start))
	s.nnNS += d
	s.acct.logitsNS.Add(d)
	s.acct.logitsRows.Add(int64(rows))
}

func (s *timedSource) grad(start time.Time, rows int) {
	d := int64(time.Since(start))
	s.nnNS += d
	s.acct.gradNS.Add(d)
	s.acct.gradRows.Add(int64(rows))
}

func (s *timedSource) Logits(x *tensor.T) []float32 {
	start := time.Now()
	out := s.m.Logits(x)
	s.logits(start, 1)
	return out
}

func (s *timedSource) LogitsBatch(xs *tensor.T) *tensor.T {
	start := time.Now()
	out := s.m.LogitsBatch(xs)
	s.logits(start, xs.Rows())
	return out
}

func (s *timedSource) LossGradBatch(xs *tensor.T, labels []int) ([]float32, *tensor.T) {
	start := time.Now()
	loss, g := s.m.LossGradBatch(xs, labels)
	s.grad(start, xs.Rows())
	return loss, g
}

// timedVictim forwards an AxDNN victim's batched inference, timing it.
// ModelKey forwards, so prediction cache keys (memory and disk) are the
// unwrapped victim's.
type timedVictim struct {
	m    attack.BatchModel
	key  string
	acct *layerAcct
}

// wrapVictim wraps m for timing when it has a content identity and a
// batched path (every AxDNN victim); anything else is returned as is.
func wrapVictim(m attack.Model, acct *layerAcct) attack.Model {
	bm, ok := m.(attack.BatchModel)
	mk, keyed := m.(core.ModelKeyer)
	if !ok || !keyed {
		return m
	}
	return &timedVictim{m: bm, key: mk.ModelKey(), acct: acct}
}

func (v *timedVictim) ModelKey() string { return v.key }

func (v *timedVictim) Logits(x *tensor.T) []float32 {
	start := time.Now()
	out := v.m.Logits(x)
	v.acct.axnnNS.Add(int64(time.Since(start)))
	v.acct.axnnRows.Add(1)
	return out
}

func (v *timedVictim) LogitsBatch(xs *tensor.T) *tensor.T {
	start := time.Now()
	out := v.m.LogitsBatch(xs)
	v.acct.axnnNS.Add(int64(time.Since(start)))
	v.acct.axnnRows.Add(int64(xs.Rows()))
	return out
}

// decomposed is the outcome of one suite run layer by layer.
type decomposed struct {
	csv    []byte
	layers map[string]float64
}

// decompose runs spec the way the engine's serial executor does, but
// calls each layer's public function itself, in plan order: Spec.Plan,
// modelzoo, core.BuildAxVictims, then per cell Cache.CraftedBatch and
// per victim Cache.Predictions and core.Robustness. It opens a span
// around every call (recorded when ctx carries a recorder) and times
// the attack, the float source and the victims through forwarding
// wrappers. Specs with a victim model, a defense block, attack
// parameters or a set-level attack (UAP, crafted through PerturbSet,
// which the wrapper does not forward) are out of its scope.
func decompose(ctx context.Context, spec *experiment.Spec, cache *core.Cache) (*decomposed, error) {
	if spec.VictimModel != "" || spec.Defense != nil || spec.AttackParams != nil {
		return nil, fmt.Errorf("decompose: spec %q uses features the layer-by-layer run does not reproduce", spec.Name)
	}
	lay := map[string]float64{}
	ctx, root := obs.Start(ctx, "bench/suite", obs.Attr{Key: "suite", Value: spec.Name})
	defer root.End()

	_, sp := obs.Start(ctx, "bench/plan")
	plan, err := spec.Plan()
	lay["plan_ms"] = ms(sp.End())
	if err != nil {
		return nil, err
	}
	mctx, sp := obs.Start(ctx, "bench/model")
	src, err := modelzoo.GetCtx(mctx, spec.Model)
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.Start(ctx, "bench/victims")
	victims, err := core.BuildAxVictims(src.Net, src.Test, spec.ExpandMultipliers(), axnn.Options{Bits: spec.Bits, ApproxDense: spec.ApproxDense})
	lay["victim_compile_s"] = sp.End().Seconds()
	if err != nil {
		return nil, err
	}
	test := src.Test.Slice(spec.Samples)

	acct := &layerAcct{}
	atks := make([]attack.Attack, len(plan.Grids))
	for gi, name := range plan.Grids {
		a, err := attack.Find(name)
		if err != nil {
			return nil, err
		}
		atks[gi] = &timedAttack{Attack: a, batch: attack.AsBatch(a), acct: acct}
	}
	names := make([]string, len(victims))
	models := make([]attack.Model, len(victims))
	for i, v := range victims {
		names[i] = v.Name
		models[i] = wrapVictim(v.Factory(), acct)
	}
	opts := core.Options{Samples: spec.Samples, Seed: spec.Seed, Workers: spec.Workers, Batch: spec.Batch, Cache: cache}

	grids := make([]*core.Grid, len(plan.Grids))
	for gi, name := range plan.Grids {
		grids[gi] = &core.Grid{
			Attack:  name,
			Dataset: src.Test.Name,
			Eps:     append([]float64(nil), spec.Eps...),
			Victims: names,
			Acc:     make([][]float64, len(spec.Eps)),
		}
	}
	var craftS, predS float64
	var craftCalls, craftHits, predCalls, predHits int
	for _, cell := range plan.Cells {
		cctx, csp := obs.Start(ctx, "bench/cell",
			obs.Attr{Key: "attack", Value: cell.Attack},
			obs.Attr{Key: "eps", Value: strconv.FormatFloat(cell.Eps, 'g', -1, 64)})
		kctx, ksp := obs.Start(cctx, "bench/crafted-batch")
		adv, hit, err := cache.CraftedBatch(kctx, src.Net, test, atks[cell.Grid], cell.Eps, opts)
		craftS += ksp.End().Seconds()
		craftCalls++
		if hit {
			craftHits++
		}
		if err != nil {
			csp.End()
			return nil, err
		}
		row := make([]float64, len(models))
		for vi, m := range models {
			pctx, psp := obs.Start(cctx, "bench/predictions", obs.Attr{Key: "victim", Value: names[vi]})
			preds, hit, err := cache.Predictions(pctx, m, adv, opts)
			predS += psp.End().Seconds()
			predCalls++
			if hit {
				predHits++
			}
			if err != nil {
				csp.End()
				return nil, err
			}
			row[vi] = core.Robustness(preds, test.Y)
		}
		grids[cell.Grid].Acc[cell.EpsIdx] = row
		csp.End()
	}
	_, sp = obs.Start(ctx, "bench/assemble")
	csv, err := reportCSV(&experiment.Report{Spec: *spec, CleanAcc: src.CleanAcc, Grids: grids})
	sp.End()
	if err != nil {
		return nil, err
	}

	lay["craft_s"] = craftS
	lay["craft_calls"] = float64(craftCalls)
	lay["craft_hit_ratio"] = ratio(craftHits, craftCalls)
	lay["predict_s"] = predS
	lay["predict_calls"] = float64(predCalls)
	lay["predict_hit_ratio"] = ratio(predHits, predCalls)
	lay["attack_self_s"] = seconds(acct.attackSelfNS.Load())
	lay["nn_grad_s"] = seconds(acct.gradNS.Load())
	lay["nn_grad_rows"] = float64(acct.gradRows.Load())
	lay["nn_logits_s"] = seconds(acct.logitsNS.Load())
	lay["nn_logits_rows"] = float64(acct.logitsRows.Load())
	lay["axnn_fwd_s"] = seconds(acct.axnnNS.Load())
	lay["axnn_rows"] = float64(acct.axnnRows.Load())
	if ns := acct.axnnNS.Load(); ns > 0 {
		lay["axnn_rows_per_s"] = float64(acct.axnnRows.Load()) / seconds(ns)
	}
	return &decomposed{csv: csv, layers: lay}, nil
}

// checkDecomposition runs spec once through the engine and once layer
// by layer, each over a fresh cache from newCache, and checks that the
// CSVs are byte-identical and the caches counted the same hits and
// misses: the timing wrappers must change no cache key and no result.
func checkDecomposition(ctx context.Context, spec *experiment.Spec, newCache func() *core.Cache) (*decomposed, error) {
	ec := newCache()
	want, err := engineSuite(context.Background(), spec, ec)
	if err != nil {
		return nil, err
	}
	dc := newCache()
	d, err := decompose(ctx, spec, dc)
	if err != nil {
		return nil, err
	}
	if err := checkCSV(d.csv, want); err != nil {
		return d, fmt.Errorf("layer-by-layer run vs engine: %w", err)
	}
	if got, want := hitMiss(dc.Stats()), hitMiss(ec.Stats()); got != want {
		return d, fmt.Errorf("layer-by-layer run cache counts %+v differ from the engine's %+v", got, want)
	}
	return d, nil
}

// cacheCounts are the hit/miss counters the decomposition must
// reproduce exactly.
type cacheCounts struct {
	CraftHits, CraftMisses, PredHits, PredMisses                 int64
	DiskCraftHits, DiskCraftMisses, DiskPredHits, DiskPredMisses int64
}

func hitMiss(s core.CacheStats) cacheCounts {
	return cacheCounts{
		s.CraftHits, s.CraftMisses, s.PredHits, s.PredMisses,
		s.DiskCraftHits, s.DiskCraftMisses, s.DiskPredHits, s.DiskPredMisses,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes computes each span's self time — its duration minus the
// part of its interval that its children cover — and sums durations
// and self times per span name, largest self time first.
func selfTimes(spans []obs.Span) []selfRow {
	children := map[string][]obs.Span{}
	for _, sp := range spans {
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	rows := map[string]*selfRow{}
	for _, sp := range spans {
		r := rows[sp.Name]
		if r == nil {
			r = &selfRow{name: sp.Name}
			rows[sp.Name] = r
		}
		r.count++
		r.total += sp.Dur
		r.self += sp.Dur - covered(sp, children[sp.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].self != out[k].self {
			return out[i].self > out[k].self
		}
		return out[i].name < out[k].name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent obs.Span, kids []obs.Span) time.Duration {
	type iv struct{ lo, hi time.Time }
	pEnd := parent.Start.Add(parent.Dur)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(k.Dur)
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(pEnd) {
			hi = pEnd
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i].lo.Before(ivs[k].lo) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			sum += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		sum += cur.hi.Sub(cur.lo)
	}
	return sum
}

// printSelfTimes writes the per-span-name self-time table.
func printSelfTimes(w io.Writer, title string, spans []obs.Span) {
	fmt.Fprintf(w, "self time by span (%s):\n", title)
	fmt.Fprintf(w, "  %-24s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-24s %6d %12.6f %12.6f\n", r.name, r.count, r.total.Seconds(), r.self.Seconds())
	}
}
