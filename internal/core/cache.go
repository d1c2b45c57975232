package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Stage latency histograms in the process-wide registry. Both observe
// only cache-miss work (a memory hit costs a map load and is not a
// stage): craft covers the disk probe plus any recompute, predict
// covers victim scoring.
var (
	craftHist = obs.Default.Histogram("ax_craft_duration_seconds",
		"Adversarial batch crafting latency on cache misses (disk probe + compute), in seconds.")
	predictHist = obs.Default.Histogram("ax_predict_duration_seconds",
		"Victim prediction latency on cache misses (disk probe + compute), in seconds.")
)

// CacheConfig bounds a Cache's retention. The zero value selects the
// defaults.
type CacheConfig struct {
	// CraftBudget bounds the total float32 elements retained across
	// crafted batches (default ~128 MB worth). Exceeding it resets the
	// cache — a simple epoch eviction that keeps any one sweep fully
	// cached while keeping long-lived processes bounded.
	CraftBudget int64
	// PredMax bounds the number of prediction memos independently of
	// the craft budget: prediction slices are tiny, but their keys pin
	// victim models, which must not accumulate forever in processes
	// that keep compiling fresh victims over small sample sets.
	PredMax int64
	// Disk adds an optional persistent tier under the in-memory one: a
	// memory miss probes the store by the artifact's stable
	// content-addressed key (see diskcodec.go) before recomputing, and
	// freshly computed artifacts are written through. A cold process
	// over a warm store therefore serves a repeated suite with zero
	// re-crafting. nil (the default) keeps the cache memory-only with
	// exactly the previous behavior.
	Disk *store.Store
}

const (
	defaultCraftBudget int64 = 32 << 20
	defaultPredMax     int64 = 4096
)

// Cache memoises crafted adversarial batches and victim predictions
// for one evaluation engine. Step 1 of Algorithm 1 is
// victim-independent, so identical (source, samples, attack, eps,
// seed) cells never need re-crafting; the victim side memoises per
// (victim, batch) so overlapping sweeps — the attack-independent
// eps=0 clean row, or the same cell across figures — replay nothing
// twice.
//
// Each Cache is independent: two engines with their own caches never
// observe each other's entries. A zero Cache is not usable; construct
// with NewCache. All methods are safe for concurrent use.
type Cache struct {
	craft       sync.Map // craftKey -> *tensor.T
	pred        sync.Map // predKey -> []int
	craftSize   atomic.Int64
	predCount   atomic.Int64
	craftBudget int64
	predMax     int64
	// disk is the optional persistent tier (CacheConfig.Disk): probed
	// on memory misses, written through on computes. Store failures
	// degrade to recomputes, never to errors on the evaluation path.
	disk *store.Store

	// Lifetime counters behind Stats. They are monotone: Clear and the
	// budget evictions drop entries but never reset the counters, so
	// long-lived services can export them as Prometheus-style counters.
	craftHits      atomic.Int64
	craftMisses    atomic.Int64
	predHits       atomic.Int64
	predMisses     atomic.Int64
	craftEvictions atomic.Int64
	predEvictions  atomic.Int64

	// Disk-tier counters. diskCraft/diskPred hits and misses partition
	// the memory misses that went on to probe the store; diskErrors
	// counts store writes that failed and stored values that would not
	// decode (both degrade to recomputes).
	diskCraftHits   atomic.Int64
	diskCraftMisses atomic.Int64
	diskPredHits    atomic.Int64
	diskPredMisses  atomic.Int64
	diskErrors      atomic.Int64
}

// CacheStats is a point-in-time snapshot of a cache's counters — the
// surface a metrics endpoint scrapes and cache tests assert directly
// (instead of inferring hits from event streams or entry counts).
// Hit/miss/eviction counters are lifetime-monotone; entry and byte
// gauges reflect what is retained right now.
type CacheStats struct {
	// CraftHits / CraftMisses count CraftedBatch lookups, including the
	// attack-independent eps=0 clean row.
	CraftHits   int64
	CraftMisses int64
	// PredHits / PredMisses count Predictions lookups.
	PredHits   int64
	PredMisses int64
	// CraftEvictions / PredEvictions count automatic epoch resets
	// (budget or entry-cap trips) — explicit Clear calls are not
	// evictions. A craft-budget trip wipes the prediction memos too
	// (Clear drops both sides), so it counts a PredEviction whenever
	// predictions were actually retained.
	CraftEvictions int64
	PredEvictions  int64
	// CraftEntries / PredEntries are the currently retained memo counts.
	CraftEntries int64
	PredEntries  int64
	// CraftBytes is the memory currently retained by crafted batches
	// (float32 payload, excluding keys and map overhead).
	CraftBytes int64

	// Disk-tier counters; all zero on a memory-only cache. DiskCraft* /
	// DiskPred* partition the memory misses that probed the persistent
	// store: a disk hit is an artifact served with zero recompute, a
	// disk miss went on to the compute path. DiskErrors counts failed
	// store writes and undecodable stored values (both degrade to
	// recomputes).
	DiskCraftHits   int64
	DiskCraftMisses int64
	DiskPredHits    int64
	DiskPredMisses  int64
	DiskErrors      int64
	// Store-level counters surfaced from the backing store.Store:
	// records dropped by size-bounded segment GC, corrupt records
	// skipped on open/read, and the live key/byte footprint.
	DiskGCEvictions    int64
	DiskCorruptRecords int64
	DiskKeys           int64
	DiskBytes          int64
}

// Stats snapshots the cache's counters. Safe for concurrent use; the
// snapshot is internally consistent only field by field (counters are
// read independently), which is all a metrics scrape needs.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		CraftHits:       c.craftHits.Load(),
		CraftMisses:     c.craftMisses.Load(),
		PredHits:        c.predHits.Load(),
		PredMisses:      c.predMisses.Load(),
		CraftEvictions:  c.craftEvictions.Load(),
		PredEvictions:   c.predEvictions.Load(),
		CraftEntries:    int64(c.CraftedLen()),
		PredEntries:     c.predCount.Load(),
		CraftBytes:      c.craftSize.Load() * 4, // float32 elements
		DiskCraftHits:   c.diskCraftHits.Load(),
		DiskCraftMisses: c.diskCraftMisses.Load(),
		DiskPredHits:    c.diskPredHits.Load(),
		DiskPredMisses:  c.diskPredMisses.Load(),
		DiskErrors:      c.diskErrors.Load(),
	}
	if c.disk != nil {
		ds := c.disk.Stats()
		s.DiskGCEvictions = ds.GCEvictedRecords
		s.DiskCorruptRecords = ds.CorruptRecords
		s.DiskKeys = ds.Keys
		s.DiskBytes = ds.DiskBytes
	}
	return s
}

// NewCache returns an empty cache with the given retention bounds.
func NewCache(cfg CacheConfig) *Cache {
	c := &Cache{craftBudget: cfg.CraftBudget, predMax: cfg.PredMax, disk: cfg.Disk}
	if c.craftBudget <= 0 {
		c.craftBudget = defaultCraftBudget
	}
	if c.predMax <= 0 {
		c.predMax = defaultPredMax
	}
	return c
}

// defaultCache backs the package-level compatibility API
// (RobustnessGrid and friends) when Options.Cache is nil.
var defaultCache = NewCache(CacheConfig{})

// DefaultCache returns the shared package-level cache used when
// Options.Cache is nil. Prefer per-engine caches (NewCache) in new
// code; the default exists so the one-call RobustnessGrid path keeps
// deduplicating across sweeps.
func DefaultCache() *Cache { return defaultCache }

// ClearCraftedCache drops every batch and prediction memoised in the
// shared default cache. Per-engine caches are cleared with
// Cache.Clear.
func ClearCraftedCache() { defaultCache.Clear() }

// CraftedCacheLen reports the number of batches memoised in the
// shared default cache.
func CraftedCacheLen() int { return defaultCache.CraftedLen() }

// Clear drops every memoised adversarial batch and victim prediction.
// Weight changes invalidate entries automatically (the keys
// fingerprint the network), so this exists to reclaim memory in
// long-running sweeps ahead of the automatic budget eviction.
func (c *Cache) Clear() {
	c.craft.Range(func(k, _ any) bool {
		c.craft.Delete(k)
		return true
	})
	c.craftSize.Store(0)
	c.clearPreds()
}

func (c *Cache) clearPreds() {
	c.pred.Range(func(k, _ any) bool {
		c.pred.Delete(k)
		return true
	})
	c.predCount.Store(0)
}

// CraftedLen reports the number of memoised (attack, eps, seed)
// batches.
func (c *Cache) CraftedLen() int {
	n := 0
	c.craft.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// storeCrafted memoises one batch, resetting the cache first when the
// retention budget would be exhausted. It returns the retained tensor:
// when two goroutines race on the same cell, both callers converge on
// the single stored batch and the size accounting counts it once.
func (c *Cache) storeCrafted(key craftKey, b *tensor.T) *tensor.T {
	if c.craftSize.Load()+int64(b.Len()) > c.craftBudget {
		c.craftEvictions.Add(1)
		// Clear wipes the prediction memos alongside the batches;
		// account for that reset so scrapers can attribute the drop.
		if c.predCount.Load() > 0 {
			c.predEvictions.Add(1)
		}
		c.Clear()
	}
	if prev, loaded := c.craft.LoadOrStore(key, b); loaded {
		return prev.(*tensor.T)
	}
	c.craftSize.Add(int64(b.Len()))
	return b
}

// storePreds memoises one victim's predictions under the same epoch
// eviction scheme. Only the prediction memos are dropped on overflow —
// crafted batches are expensive and stay until their own budget trips.
func (c *Cache) storePreds(key predKey, preds []int) {
	if c.predCount.Load() >= c.predMax {
		c.predEvictions.Add(1)
		c.clearPreds()
	}
	if _, loaded := c.pred.LoadOrStore(key, preds); !loaded {
		c.predCount.Add(1)
	}
}

// diskCraftProbe asks the persistent tier for one crafted batch,
// validating the decoded shape against what the compute path would
// produce. A stored value that will not decode or has the wrong shape
// counts a disk error and degrades to a recompute.
func (c *Cache) diskCraftProbe(ctx context.Context, dkey string, want []int) (*tensor.T, bool) {
	pctx, probe := obs.Start(ctx, "cache-probe")
	defer probe.End()
	_, get := obs.Start(pctx, "disk-get")
	val, ok := c.disk.Get(dkey)
	get.End()
	if !ok {
		c.diskCraftMisses.Add(1)
		return nil, false
	}
	t, err := decodeTensor(val)
	if err != nil || !shapeEq(t.Shape, want) {
		c.diskErrors.Add(1)
		c.diskCraftMisses.Add(1)
		return nil, false
	}
	c.diskCraftHits.Add(1)
	return t, true
}

// diskPut writes one freshly computed artifact through to the
// persistent tier. Failures count a disk error and are otherwise
// ignored: the evaluation path never fails on persistence.
func (c *Cache) diskPut(ctx context.Context, dkey string, val []byte) {
	_, sp := obs.Start(ctx, "disk-put")
	defer sp.End()
	if err := c.disk.Put(dkey, val); err != nil {
		c.diskErrors.Add(1)
	}
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CraftedBatch returns the [N, sampleShape...] adversarial batch for
// one (attack, eps) cell, crafting it in parallel batches on first
// use and serving the memo afterwards. hit reports whether the batch
// came from the cache. Crafting observes ctx: on cancellation the
// workers stop at the next chunk boundary, nothing is memoised, and
// ctx.Err() is returned.
func (c *Cache) CraftedBatch(ctx context.Context, src *nn.Network, test *dataset.Set, atk attack.Attack, eps float64, opts Options) (adv *tensor.T, hit bool, err error) {
	if test.Len() == 0 {
		return nil, false, errors.New("core: cannot craft over an empty test set")
	}
	epsQ := EpsKey(eps)
	if epsQ == 0 {
		return c.cleanBatch(test)
	}
	key := craftKey{
		src: src, srcFP: src.WeightsFingerprint(),
		first: test.X[0], n: test.Len(),
		// ConfigKey, not Name: tunable attack parameters (BIM/PGD
		// steps, MI-FGSM momentum, UAP iterations, restart counts)
		// must never share cache entries.
		attack: attack.ConfigKey(atk), epsQ: epsQ, seed: opts.Seed,
	}
	if v, ok := c.craft.Load(key); ok {
		c.craftHits.Add(1)
		return v.(*tensor.T), true, nil
	}
	c.craftMisses.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	// A memory miss is the start of the craft stage: the span (and the
	// craft histogram) covers the disk probe plus any recompute, and
	// every disk touch below nests under it.
	ctx, span := obs.Start(ctx, "craft",
		obs.Attr{Key: "attack", Value: key.attack},
		obs.Attr{Key: "eps", Value: strconv.FormatFloat(eps, 'g', -1, 64)})
	defer func() { craftHist.Observe(span.End()) }()
	var dkey string
	if c.disk != nil {
		dkey = craftDiskKey(src, test, key.attack, epsQ, opts.Seed)
		want := append([]int{test.Len()}, test.X[0].Shape...)
		if t, ok := c.diskCraftProbe(ctx, dkey, want); ok {
			// A disk hit is an artifact served with zero recompute, which
			// is what hit means to callers (CellTiming.CacheHit, events).
			return c.storeCrafted(key, t), true, nil
		}
	}

	if sa, ok := atk.(attack.SetAttack); ok {
		// Set-level attacks (UAP) craft one image-agnostic perturbation
		// over the whole set, so there is nothing to chunk across
		// workers: one PerturbSet call, one rng stream per (eps, seed) —
		// independent of worker count and batch size, so two runs with
		// the same seed memoise bit-identical batches. Cancellation is
		// observed inside PerturbSet at chunk granularity; the partial
		// result is discarded below, never memoised.
		rng := rand.New(rand.NewSource(opts.Seed*1_000_003 + epsQ*7_919))
		out := sa.PerturbSet(ctx, src, tensor.Stack(test.X), test.Y, eps, rng)
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		kept := c.storeCrafted(key, out)
		if dkey != "" {
			c.diskPut(ctx, dkey, encodeTensor(kept))
		}
		return kept, false, nil
	}

	n := test.Len()
	out := tensor.New(append([]int{n}, test.X[0].Shape...)...)
	runChunked(ctx, n, opts, func(lo, hi int) {
		xs := tensor.Stack(test.X[lo:hi])
		rngs := make([]*rand.Rand, hi-lo)
		for i := range rngs {
			// Per-sample stream keyed by (seed, sample, eps):
			// independent of batch chunking and sweep shape, so cached
			// and freshly crafted batches agree bit for bit.
			rngs[i] = rand.New(rand.NewSource(opts.Seed + int64(lo+i)*1_000_003 + epsQ*7_919))
		}
		crafted := atk.PerturbBatch(src, xs, test.Y[lo:hi], eps, rngs)
		copy(out.RowView(lo, hi).Data, crafted.Data)
	})
	if err := ctx.Err(); err != nil {
		// Partial batches must never be memoised.
		return nil, false, err
	}
	kept := c.storeCrafted(key, out)
	if dkey != "" {
		c.diskPut(ctx, dkey, encodeTensor(kept))
	}
	return kept, false, nil
}

// cleanBatch returns the memoised stacked clean inputs — the eps=0
// cell of every attack's sweep, which is attack- and seed-independent
// (all attacks are the identity at zero budget, pinned by the attack
// tests).
func (c *Cache) cleanBatch(test *dataset.Set) (*tensor.T, bool, error) {
	key := craftKey{first: test.X[0], n: test.Len()}
	if v, ok := c.craft.Load(key); ok {
		c.craftHits.Add(1)
		return v.(*tensor.T), true, nil
	}
	c.craftMisses.Add(1)
	return c.storeCrafted(key, tensor.Stack(test.X)), false, nil
}

// Predictions scores one victim over the crafted batch with
// LogitsBatch, memoising per (victim, batch). hit reports whether the
// predictions came from the cache; cancellation behaves as in
// CraftedBatch.
func (c *Cache) Predictions(ctx context.Context, m attack.Model, adv *tensor.T, opts Options) (preds []int, hit bool, err error) {
	key := predKey{batch: adv}
	if mk, ok := m.(ModelKeyer); ok {
		key.key = mk.ModelKey()
	} else {
		key.model = m
		if f, ok := m.(fingerprinter); ok {
			key.modelFP = f.WeightsFingerprint()
		}
	}
	if v, ok := c.pred.Load(key); ok {
		c.predHits.Add(1)
		return v.([]int), true, nil
	}
	c.predMisses.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	ctx, span := obs.Start(ctx, "predict")
	defer func() { predictHist.Observe(span.End()) }()
	var dkey string
	if c.disk != nil {
		// Models without a stable content identity (no ModelKey or
		// weights fingerprint) stay memory-tier only.
		if dk, ok := predDiskKey(m, adv); ok {
			dkey = dk
			pctx, probe := obs.Start(ctx, "cache-probe")
			_, get := obs.Start(pctx, "disk-get")
			val, found := c.disk.Get(dkey)
			get.End()
			probe.End()
			if !found {
				c.diskPredMisses.Add(1)
			} else if ps, err := decodePreds(val); err != nil || len(ps) != adv.Rows() {
				c.diskErrors.Add(1)
				c.diskPredMisses.Add(1)
			} else {
				c.diskPredHits.Add(1)
				c.storePreds(key, ps)
				return ps, true, nil
			}
		}
	}
	n := adv.Rows()
	preds = make([]int, n)
	runChunked(ctx, n, opts, func(lo, hi int) {
		copy(preds[lo:hi], tensor.ArgMaxRows(m.LogitsBatch(adv.RowView(lo, hi))))
	})
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	c.storePreds(key, preds)
	if dkey != "" {
		c.diskPut(ctx, dkey, encodePreds(preds))
	}
	return preds, false, nil
}

// runChunked fans fn over [0, n) in opts-derived chunks across
// opts-derived workers.
func runChunked(ctx context.Context, n int, opts Options, fn func(lo, hi int)) {
	RunChunked(ctx, n, opts.batchSize(n), opts.workers(), fn)
}

// RunChunked fans fn over [0, n) in chunk-sized ranges across workers,
// stopping at the next chunk boundary once ctx is cancelled (returned
// as the error). Non-positive chunk and workers select 1 and
// GOMAXPROCS (the repo-wide "0 = default" convention), so an
// un-defaulted config can never silently run zero workers. It returns
// only after every worker has exited, so callers never leak
// goroutines into cancelled sweeps. Exported for the other chunked
// crafting loops in the tree (defense.AdvTrain) so the
// fan-out/cancellation semantics live in one place.
func RunChunked(ctx context.Context, n, chunk, workers int, fn func(lo, hi int)) error {
	if chunk < 1 {
		chunk = 1
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (n + chunk - 1) / chunk; workers > max {
		workers = max
	}
	done := ctx.Done()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				lo := next
				next += chunk
				mu.Unlock()
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
