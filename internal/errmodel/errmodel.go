// Package errmodel computes exhaustive error metrics for 8x8
// approximate multipliers — the standard figures of merit used by the
// EvoApprox8b library and by the paper (which quantifies approximation
// noise via MAE%).
//
// All metrics are computed over the full 65536-point input space with
// uniform operand distribution, matching how EvoApprox reports them.
package errmodel

import (
	"math"

	"repro/internal/axmult"
)

// MaxProduct is the largest exact product of two 8-bit operands.
const MaxProduct = 255 * 255

// Metrics summarises the error behaviour of a multiplier relative to
// the exact product, over all 65536 input pairs.
type Metrics struct {
	Name string

	MAE  float64 // mean |error|
	MAEP float64 // MAE as % of MaxProduct (the paper's "MAE%")
	WCE  float64 // worst-case |error|
	WCEP float64 // WCE as % of MaxProduct
	MRE  float64 // mean relative error over non-zero exact products, %
	Bias float64 // mean signed error (negative = undershoots)
	Var  float64 // variance of signed error
	EP   float64 // error probability: fraction of inputs with any error
}

// tabler is satisfied by multipliers that cache as exhaustive tables
// (axmult.LUT): their full-space sweep is a linear scan of the table
// instead of 65,536 virtual Mul dispatches.
type tabler interface {
	Table() []uint16
}

// Measure computes Metrics for m exhaustively. Multipliers that expose
// a compiled table (axmult.LUT — what MeasureNamed always passes) are
// measured by scanning the table directly.
func Measure(m axmult.Multiplier) Metrics {
	if t, ok := m.(tabler); ok {
		return measureTable(m.Name(), t.Table())
	}
	var (
		sumAbs, sumSigned, sumSq, sumRel float64
		wce                              float64
		errs, relN                       int
	)
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			exact := float64(a * b)
			got := float64(m.Mul(uint8(a), uint8(b)))
			e := got - exact
			ae := math.Abs(e)
			sumAbs += ae
			sumSigned += e
			sumSq += float64(e * e)
			if ae > wce {
				wce = ae
			}
			if ae > 0 {
				errs++
			}
			if exact != 0 {
				sumRel += ae / exact
				relN++
			}
		}
	}
	n := float64(256 * 256)
	mean := sumSigned / n
	return Metrics{
		Name: m.Name(),
		MAE:  sumAbs / n,
		MAEP: 100 * sumAbs / n / MaxProduct,
		WCE:  wce,
		WCEP: 100 * wce / MaxProduct,
		MRE:  100 * sumRel / float64(relN),
		Bias: mean,
		Var:  float64(sumSq/n) - float64(mean*mean),
		EP:   float64(errs) / n,
	}
}

// measureTable computes Metrics from an exhaustive product table
// (index a<<8|b) — identical arithmetic and accumulation order to the
// dispatching loop in Measure, so both paths report the same figures.
func measureTable(name string, table []uint16) Metrics {
	var (
		sumAbs, sumSigned, sumSq, sumRel float64
		wce                              float64
		errs, relN                       int
	)
	for a := 0; a < 256; a++ {
		row := table[a<<8 : a<<8+256]
		for b, got16 := range row {
			exact := float64(a * b)
			got := float64(got16)
			e := got - exact
			ae := math.Abs(e)
			sumAbs += ae
			sumSigned += e
			sumSq += float64(e * e)
			if ae > wce {
				wce = ae
			}
			if ae > 0 {
				errs++
			}
			if exact != 0 {
				sumRel += ae / exact
				relN++
			}
		}
	}
	n := float64(256 * 256)
	mean := sumSigned / n
	return Metrics{
		Name: name,
		MAE:  sumAbs / n,
		MAEP: 100 * sumAbs / n / MaxProduct,
		WCE:  wce,
		WCEP: 100 * wce / MaxProduct,
		MRE:  100 * sumRel / float64(relN),
		Bias: mean,
		Var:  float64(sumSq/n) - float64(mean*mean),
		EP:   float64(errs) / n,
	}
}

// MeasureNamed measures the registered multiplier name via its compiled
// LUT (so the measurement also covers the LUT path) — served by the
// process-wide cached table, no per-call dispatch.
func MeasureNamed(name string) (Metrics, error) {
	l, err := axmult.Lookup(name)
	if err != nil {
		return Metrics{}, err
	}
	return Measure(l), nil
}
