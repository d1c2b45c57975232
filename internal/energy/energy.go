// Package energy estimates the relative energy, area, and delay of the
// approximate multipliers and of whole AxDNN inferences — the premise
// of the paper (approximate computing is adopted for energy efficiency;
// the robustness study asks what that efficiency costs under attack).
//
// EvoApprox8b ships per-design power/area/delay from synthesis; with no
// synthesis flow available offline, this package derives *relative*
// hardware-cost proxies from the behavioural circuit structure itself:
//
//   - Area proxy: the number of partial-product bits the design
//     actually computes plus the adder cells needed to reduce them
//     (full adders have a known transistor cost; approximate cells such
//     as AMA1..AMA5 save a documented number of transistors).
//   - Energy proxy: average switching activity, measured exhaustively —
//     the mean Hamming weight of the partial products consumed per
//     multiplication (dominant dynamic-power term of array multipliers).
//   - Delay proxy: the depth of the reduction (columns of the widest
//     surviving partial-product stack).
//
// All figures are normalised to the exact array multiplier (= 1.0), the
// same presentation EvoApprox uses. They are design-space *ordering*
// tools, not absolute watts; the package tests pin the orderings the
// trade-off analysis depends on.
package energy

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/axmult"
)

// Cost summarises the relative hardware cost of a multiplier design,
// normalised so the exact 8x8 array multiplier is 1.0 on every axis.
type Cost struct {
	Name string
	// Energy is the switching-activity proxy (relative).
	Energy float64
	// Area is the active-cell-count proxy (relative).
	Area float64
	// Delay is the reduction-depth proxy (relative).
	Delay float64
}

// exactActivity is the mean partial-product Hamming weight of the
// exact 8x8 array multiplier under uniform operands: 64 AND gates each
// active with probability 1/4.
const exactActivity = 16.0

// exactCells is the adder-cell count of the exact 8x8 carry-save array
// (64 partial products reduce through 48 adder cells plus the final
// row), used as the area normaliser.
const exactCells = 64.0 + 48.0

// exactDepth is the column count of the exact product.
const exactDepth = 16.0

// Estimate derives the relative cost of a registered multiplier by
// probing its behavioural structure exhaustively.
//
// The activity proxy is measured from the function itself: the average
// Hamming weight of the *output* plus the average Hamming weights of
// the operands the design actually consumes approximate the toggling
// that the surviving array cells perform. Designs that drop partial
// products (truncation, perforation, broken arrays) or collapse
// operands to short mantissas (DRUM, log multipliers, segment designs)
// toggle proportionally less.
func Estimate(name string) (Cost, error) {
	// The behavioural instance is only probed for its structure (the
	// type switch below); the full-space output sweep reads the
	// registry-cached LUT table directly — one linear scan instead of
	// 65,536 virtual Mul dispatches into the gate-level model.
	m, err := axmult.New(name)
	if err != nil {
		return Cost{}, err
	}
	l, err := axmult.Lookup(name)
	if err != nil {
		return Cost{}, err
	}
	var outBits float64
	for _, v := range l.Table() {
		outBits += float64(bits.OnesCount16(v))
	}
	exactBits := exactOutputBits()
	// Output toggling tracks the fraction of array kept active. The
	// proxy is capped at 1: an approximate design performs a subset of
	// the exact array's work even when its error pattern happens to set
	// more output bits (e.g. Kulkarni's 3*3 -> 0b0111).
	activity := outBits / exactBits
	if activity > 1 {
		activity = 1
	}

	// Structural area/delay where the design type is known; fall back
	// to the activity proxy otherwise (activity tracks surviving cells
	// closely for reduction-style designs).
	area, delay := structuralCost(m)
	if area == 0 {
		area = activity
	}
	if delay == 0 {
		delay = 1
	}
	return Cost{
		Name:   m.Name(),
		Energy: activity * normEnergy(m),
		Area:   area,
		Delay:  delay,
	}, nil
}

// exactOutputBits returns the total output Hamming weight of the exact
// multiplier over the full input space — the activity normaliser. It
// is a pure constant of the 8x8 space, computed once.
var exactOutputBits = sync.OnceValue(func() float64 {
	var sum float64
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			sum += float64(bits.OnesCount32(uint32(a) * uint32(b)))
		}
	}
	return sum
})

// normEnergy applies the cell-level energy discount for designs whose
// adder cells are themselves simplified (approximate mirror adders use
// fewer transistors per operation).
func normEnergy(m axmult.Multiplier) float64 {
	if am, ok := m.(axmult.ArrayMult); ok && am.ApproxCols > 0 {
		// Each approximate column saves roughly 20% of its cell energy;
		// 16 columns total.
		return 1 - float64(0.2*float64(am.ApproxCols)/16)
	}
	return 1
}

// structuralCost returns (area, delay) proxies for the design families
// whose structure is directly visible, both relative to the exact
// array. Zero means "unknown; use the activity fallback".
func structuralCost(m axmult.Multiplier) (float64, float64) {
	switch t := m.(type) {
	case axmult.TruncMult:
		return costDropColumns(uint(t.Cut), 0), float64(16-int(t.Cut)) / exactDepth
	case axmult.BrokenArray:
		return costDropColumns(t.VBreak, t.HRows), float64(16-int(t.VBreak)) / exactDepth
	case axmult.Perforated:
		dropped := bits.OnesCount8(t.Rows)
		return float64(float64(64-8*dropped)/64.0*cellShare()) + baseShare(), 1
	case axmult.LowOR:
		// The al*bl sub-multiplier (k*k cells) collapses to k OR gates.
		k := float64(t.K)
		return float64((64-float64(k*k)+k)/64.0*cellShare()) + baseShare(), 1
	case axmult.DRUM:
		// Two k-bit mantissa multipliers plus leading-one detectors and
		// shifters; EvoApprox-class DRUM(k) area is ~(k/8)^2 of the full
		// array plus ~15% steering overhead.
		k := float64(t.K)
		return float64((k*k)/64.0) + 0.15, float64((float64(t.K)+4)/exactDepth) * 2
	case axmult.Mitchell:
		// Log/antilog shifters and one addition: ~35% of the array.
		return 0.35, 0.75
	case axmult.MitchellTrunc:
		return 0.30, 0.7
	case axmult.Kulkarni:
		// The 2x2 block saves one output; compounded recursively ~12%.
		return 0.88, 1
	case axmult.KulkarniLow:
		return 0.97, 1
	case axmult.Compressor42:
		// Approximate compressors in k columns save ~30% of those
		// columns' reduction cells.
		saved := float64(0.3 * float64(t.ApproxCols) / 16 * (48.0 / exactCells))
		return 1 - saved, 1 - float64(0.2*float64(t.ApproxCols)/16)
	case axmult.ArrayMult:
		if t.ApproxCols == 0 {
			return 1, 1
		}
		// Approximate mirror-adder cells save ~30% area in their columns.
		return 1 - float64(0.3*float64(t.ApproxCols)/16*(48.0/exactCells)), 1
	}
	return 0, 0
}

// costDropColumns returns the area share of a broken/truncated array
// keeping only partial products with column index >= v and row >= h.
func costDropColumns(v, h uint) float64 {
	kept := 0
	for i := uint(0); i < 8; i++ {
		for j := uint(0); j < 8; j++ {
			if i+j >= v && i >= h {
				kept++
			}
		}
	}
	return float64(float64(kept)/64*cellShare()) + baseShare()
}

// cellShare is the fraction of exact-array area attributable to the
// partial-product generators and reduction cells that scale with kept
// products.
func cellShare() float64 { return 0.85 }

// baseShare is the irreducible share (operand latches, final stage).
func baseShare() float64 { return 0.15 }

// InferenceMACs counts the multiply operations of one inference per
// layer geometry: convolution layers dominate AxDNN energy (the reason
// the paper approximates conv multipliers).
type InferenceMACs struct {
	Conv  int64
	Dense int64
}

// Total returns all MACs.
func (m InferenceMACs) Total() int64 { return m.Conv + m.Dense }

// LayerGeom describes one layer's MAC-relevant geometry.
type LayerGeom struct {
	Kind         string // "conv" or "dense"
	InC, OutC, K int
	OutH, OutW   int
	In, Out      int // dense
}

// CountMACs computes per-inference MAC counts from layer geometry.
func CountMACs(layers []LayerGeom) InferenceMACs {
	var m InferenceMACs
	for _, l := range layers {
		switch l.Kind {
		case "conv":
			m.Conv += int64(l.OutC) * int64(l.OutH) * int64(l.OutW) * int64(l.InC) * int64(l.K) * int64(l.K)
		case "dense":
			m.Dense += int64(l.In) * int64(l.Out)
		}
	}
	return m
}

// InferenceEnergy estimates the relative multiplier energy of one
// AxDNN inference: conv MACs run on the named approximate design,
// dense MACs on the exact one (per the paper's Section IV-A split).
// The unit is "exact-multiplier MAC energies".
func InferenceEnergy(macs InferenceMACs, multName string) (float64, error) {
	c, err := Estimate(multName)
	if err != nil {
		return 0, err
	}
	return float64(float64(macs.Conv)*c.Energy) + float64(macs.Dense)*1.0, nil
}

// TradeoffRow pairs a design's energy with an accuracy observation for
// the Pareto report.
type TradeoffRow struct {
	Name     string
	Energy   float64
	Area     float64
	Accuracy float64
}

// Tradeoff builds rows for the given designs with the caller-supplied
// accuracy map (e.g. clean accuracy or robustness at a budget).
func Tradeoff(names []string, accuracy map[string]float64) ([]TradeoffRow, error) {
	rows := make([]TradeoffRow, 0, len(names))
	for _, n := range names {
		c, err := Estimate(n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TradeoffRow{Name: c.Name, Energy: c.Energy, Area: c.Area, Accuracy: accuracy[n]})
	}
	return rows, nil
}

// String renders a row.
func (r TradeoffRow) String() string {
	return fmt.Sprintf("%-14s energy=%.2fx area=%.2fx acc=%.1f%%", r.Name, r.Energy, r.Area, r.Accuracy)
}
