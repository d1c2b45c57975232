package experiment

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
)

// cellHist times whole cells (craft + all victim evaluations) — the
// top-line latency distribution of the pipeline.
var cellHist = obs.Default.Histogram("ax_cell_duration_seconds",
	"End-to-end cell execution latency (craft through last victim evaluation), in seconds.")

// Executor runs a bound plan and assembles its Report. Implementations
// may execute cells in any order and with any parallelism; the Report
// is always assembled in plan order, so every executor producing the
// same numbers produces the same bytes.
type Executor interface {
	Execute(ctx context.Context, run *PlanRun) (*Report, error)
}

// SchedCounters are the scheduler's lifetime counters, shared between
// an executor and whoever exports them (axserve's /metrics). Local
// counts cells this process executed through its own executor,
// Remote cells a peer executed for this node's sharded jobs, and
// Fallback the subset of Local re-executed here after a peer shard
// failed.
type SchedCounters struct {
	Local    atomic.Int64
	Remote   atomic.Int64
	Fallback atomic.Int64
}

// PlanRun is a plan bound to its runtime inputs — resolved models,
// sliced test set, built victims, per-grid attack instances — ready
// for an Executor. Engine.RunPlan constructs it; executors consume it.
type PlanRun struct {
	plan     *Plan
	dataset  string
	cleanAcc float64
	src      *nn.Network
	test     *dataset.Set
	atks     []attack.Attack // parallel to plan.Grids
	names    []string        // victim columns, in report order
	models   []attack.Model  // parallel to names
	opts     core.Options
	cache    *core.Cache
	emit     func(Event)
}

// Plan returns the plan this run was bound from.
func (r *PlanRun) Plan() *Plan { return r.plan }

// cellResult is one completed cell's victim row and timing.
type cellResult struct {
	row     []float64
	hit     bool
	elapsed time.Duration
}

// LocalExecutor runs a plan's cells in this process on a pool of
// Parallel workers. Each worker claims the next cell in plan order and
// runs it whole: craft the batch, then score it on every victim. The
// first cell error cancels the other workers and is returned.
//
// With Parallel <= 1 cells run one after another in plan order and
// every event is emitted from one goroutine. With more workers, cells
// start in plan order but finish, and emit, in whatever order they
// complete. Reports are assembled in plan order after all cells
// complete, so the bytes are identical whatever the completion order
// was.
type LocalExecutor struct {
	// Parallel is the number of cells in flight at once; 0 or 1 means
	// serial. Within-cell crafting parallelism is still governed by
	// Spec.Workers.
	Parallel int
	// Counters, when non-nil, counts the cells run here in Local;
	// Remote/Fallback are the sharded scheduler's.
	Counters *SchedCounters
}

func (x *LocalExecutor) Execute(ctx context.Context, run *PlanRun) (*Report, error) {
	n := len(run.plan.Cells)
	workers := min(max(x.Parallel, 1), n)
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	results := make([]cellResult, n)
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				// Checking ctx per cell keeps a cancelled, fully cached
				// sweep from completing.
				if i >= n || ctx.Err() != nil {
					return
				}
				res, err := x.runCell(ctx, run, i)
				if err != nil {
					cancel(err)
					return
				}
				results[i] = res
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if done.Load() < int64(n) {
		return nil, context.Cause(ctx)
	}
	return run.assemble(results), nil
}

// runCell crafts cell ci's batch and scores it on every victim, inside
// one cell span.
func (x *LocalExecutor) runCell(ctx context.Context, run *PlanRun, ci int) (cellResult, error) {
	plan := run.plan
	cell := plan.Cells[ci]
	ctx, span := obs.Start(ctx, "cell",
		obs.Attr{Key: "attack", Value: cell.Attack},
		obs.Attr{Key: "eps", Value: strconv.FormatFloat(cell.Eps, 'g', -1, 64)},
		obs.Attr{Key: "cell", Value: strconv.Itoa(cell.Index)})
	ev := Event{Kind: CellStarted, Suite: plan.spec.Name, Attack: cell.Attack, Eps: cell.Eps, Cell: cell.Index, Cells: plan.Total}
	run.emit(ev)
	adv, hit, err := run.cache.CraftedBatch(ctx, run.src, run.test, run.atks[cell.Grid], cell.Eps, run.opts)
	if err != nil {
		return cellResult{}, err
	}
	ev.Kind = cacheKind(hit)
	run.emit(ev)
	res := cellResult{row: make([]float64, len(run.models)), hit: hit}
	for vi, m := range run.models {
		preds, _, err := run.cache.Predictions(ctx, m, adv, run.opts)
		if err != nil {
			return cellResult{}, err
		}
		res.row[vi] = core.Robustness(preds, run.test.Y)
	}
	res.elapsed = span.End()
	cellHist.Observe(res.elapsed)
	if x.Counters != nil {
		x.Counters.Local.Add(1)
	}
	ev.Kind, ev.CacheHit, ev.Elapsed = CellFinished, hit, res.elapsed
	run.emit(ev)
	return res, nil
}

// assemble builds the Report in plan order from completed cell results.
func (r *PlanRun) assemble(results []cellResult) *Report {
	spec := r.plan.spec
	rep := &Report{
		Spec:     *spec,
		CleanAcc: r.cleanAcc,
		Grids:    make([]*core.Grid, len(r.plan.Grids)),
		Cells:    make([]CellTiming, 0, len(r.plan.Cells)),
	}
	for gi, name := range r.plan.Grids {
		rep.Grids[gi] = &core.Grid{
			Attack:  name,
			Dataset: r.dataset,
			Eps:     append([]float64(nil), spec.Eps...),
			Victims: append([]string(nil), r.names...),
			Acc:     make([][]float64, len(spec.Eps)),
		}
	}
	for i, cell := range r.plan.Cells {
		res := &results[i]
		rep.Grids[cell.Grid].Acc[cell.EpsIdx] = res.row
		rep.Cells = append(rep.Cells, CellTiming{
			Attack:    cell.Attack,
			Eps:       cell.Eps,
			CacheHit:  res.hit,
			ElapsedMS: float64(res.elapsed) / float64(time.Millisecond),
		})
	}
	return rep
}
