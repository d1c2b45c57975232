package defense

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Ensemble is a moving-target victim in the style of MTDeep: a pool of
// AxDNN configurations (one per approximate multiplier) of which one,
// drawn per query, serves each classification. The adversary cannot
// know which inexactness answers any given query, so a perturbation
// tuned to one configuration may miss the one that actually serves.
//
// The per-query draw is a keyed hash of the query's pixels and the
// ensemble seed — a deterministic function, so replays, cached victim
// predictions, and repeated reports are bit-identical, while distinct
// queries spread uniformly over the pool and an adversary without the
// seed cannot aim at a member. The honest attack against this victim
// is attack.NewEOT, which averages gradients over SampleModel draws
// instead of trusting any single configuration; Ensemble implements
// attack.Sampler for it.
type Ensemble struct {
	name string
	key  string
	pool []attack.Model
	seed int64
}

// BuildEnsemble compiles one AxDNN per multiplier in pool (same
// compilation path as the grid victims) and returns the randomized
// ensemble victim over them.
func BuildEnsemble(src *nn.Network, calib *dataset.Set, pool []string, opts axnn.Options, seed int64) (*Ensemble, error) {
	if len(pool) == 0 {
		return nil, errors.New("defense: ensemble needs a non-empty multiplier pool")
	}
	victims, err := core.BuildAxVictims(src, calib, pool, opts)
	if err != nil {
		return nil, err
	}
	members := make([]attack.Model, len(victims))
	for i, v := range victims {
		members[i] = v.Factory()
	}
	return &Ensemble{
		name: fmt.Sprintf("ensemble[%d]", len(pool)),
		// The key folds everything the member behaviour depends on —
		// pool, source weights, quantization, and the calibration
		// samples the quantization ranges were derived from — plus the
		// draw seed, so crafted-example and prediction caches never
		// conflate two ensembles.
		key: fmt.Sprintf("ensemble[%s|src=%s/%016x|calib=%016x|bits=%d|dense=%t|seed=%d]",
			strings.Join(pool, ","), src.Name, src.WeightsFingerprint(), calibFingerprint(calib), opts.Bits, opts.ApproxDense, seed),
		pool: members,
		seed: seed,
	}, nil
}

// calibFingerprint folds the calibration inputs that axnn.Compile
// consumes (the first 64 samples — keep in sync with
// core.BuildAxVictims) into a cheap FNV-style hash: different
// calibration data yields different quantization ranges, so it must
// split the ensemble's cache identity.
func calibFingerprint(calib *dataset.Set) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, x := range calib.Inputs(64) {
		for _, v := range x.Data {
			h ^= uint64(math.Float32bits(v))
			h *= prime
		}
	}
	return h
}

// Name is the victim column label ("ensemble[<pool size>]").
func (e *Ensemble) Name() string { return e.name }

// Size returns the pool size.
func (e *Ensemble) Size() int { return len(e.pool) }

// pickIdx hashes one query into a pool index (FNV-1a over the seed
// and the query's pixel bits).
func (e *Ensemble) pickIdx(x *tensor.T) int {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(e.seed)
	h *= prime
	for _, v := range x.Data {
		h ^= uint64(math.Float32bits(v))
		h *= prime
	}
	return int(h % uint64(len(e.pool)))
}

// Logits implements attack.Model for one sample: the drawn member
// answers the query.
func (e *Ensemble) Logits(x *tensor.T) []float32 {
	return e.pool[e.pickIdx(x)].Logits(x)
}

// LogitsBatch implements attack.Model: each row is answered by its own
// draw, and rows drawing the same member are scored with one
// LogitsBatch call. Row r is bit-identical to Logits on row r.
func (e *Ensemble) LogitsBatch(xs *tensor.T) *tensor.T {
	n := xs.Rows()
	groups := make([][]int, len(e.pool))
	for r := 0; r < n; r++ {
		mi := e.pickIdx(xs.Row(r))
		groups[mi] = append(groups[mi], r)
	}
	var out *tensor.T
	for mi, rows := range groups {
		if len(rows) == 0 {
			continue
		}
		logits := e.pool[mi].LogitsBatch(tensor.GatherRows(xs, rows))
		if out == nil {
			out = tensor.New(n, logits.RowLen())
		}
		tensor.ScatterRows(out, logits, rows)
	}
	return out
}

// ModelKey implements core.ModelKeyer: the ensemble's behaviour is
// fully determined by its key (pool, source fingerprint, quantization,
// seed), so victim-prediction memos survive across runs that rebuild
// an identical ensemble instance.
func (e *Ensemble) ModelKey() string { return e.key }

// SampleModel implements attack.Sampler: one uniform draw from the
// pool — the distribution an adaptive adversary averages over.
func (e *Ensemble) SampleModel(rng *rand.Rand) attack.Model {
	return e.pool[rng.Intn(len(e.pool))]
}

// SamplerKey implements attack.Sampler.
func (e *Ensemble) SamplerKey() string { return e.key }
