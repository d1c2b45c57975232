// Package attack implements the paper's ten adversarial attacks (Table I)
// with Foolbox-compatible semantics:
//
//	gradient-based: FGM (l2, linf), BIM (l2, linf), PGD (l2, linf)
//	decision-based: CR (l2), RAG (l2), RAU (l2, linf)
//
// plus a universal/targeted extension family beyond Table I:
//
//	momentum: MIFGSM (l2, linf) — momentum-iterative FGSM
//	set-level: UAP (l2, linf) — one image-agnostic perturbation per set
//	wrapper: Restart — random restarts around PGD (see NewRestart)
//
// Attacks perturb a correctly labelled input within a perturbation
// budget eps measured in the attack's norm, clamping to the valid pixel
// box [0,1]. Per the paper's threat model, attacks are always run
// against the *accurate* model (the adversary does not know the victim's
// inexactness); the perturbed inputs are then replayed on AxDNN victims
// by the harness in internal/core.
//
// Every attack crafts whole batches (Attack.PerturbBatch) and every
// model scores them (Model.LogitsBatch). Gradient attacks take one
// batched gradient per step; decision attacks loop over the rows. Row r
// consumes only its own rng stream, so a crafted batch is independent
// of how the harness chunks it, bit for bit.
package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Model is a classifier that scores whole batches: LogitsBatch takes
// [N, sampleShape...] and returns [N, classes]. Logits scores one
// sample and must match row r of LogitsBatch bit for bit.
type Model interface {
	Logits(x *tensor.T) []float32
	LogitsBatch(xs *tensor.T) *tensor.T
}

// GradModel additionally exposes the batched loss gradient w.r.t. the
// input, as required by the gradient-based attacks. internal/nn
// networks implement it.
type GradModel interface {
	Model
	LossGradBatch(xs *tensor.T, labels []int) ([]float32, *tensor.T)
}

// BatchModel is kept only because suitebench still names it; use Model.
type BatchModel = Model

// BatchGradModel is kept only because suitebench still names it; use GradModel.
type BatchGradModel = GradModel

// BatchAttack is kept only because suitebench still names it; use Attack.
type BatchAttack = Attack

// AsBatch is kept only because suitebench still calls it; it returns a.
func AsBatch(a Attack) Attack { return a }

// Norm identifies the distance metric bounding a perturbation.
type Norm int

// Supported perturbation norms.
const (
	L2 Norm = iota
	Linf
)

// String returns the paper's notation for the norm.
func (n Norm) String() string {
	if n == Linf {
		return "linf"
	}
	return "l2"
}

// Attack crafts adversarial examples for the [N, sampleShape...] batch
// xs with labels, each row within budget eps. rngs holds one
// independent deterministic stream per row, and row r must consume
// rngs[r] only, so the crafted rows do not depend on how the batch is
// chunked. Implementations must not modify xs and must be safe for
// concurrent use with distinct rng instances. Gradient-based attacks
// require m to be a GradModel and panic otherwise (a configuration
// bug, not a runtime condition).
type Attack interface {
	Name() string
	Norm() Norm
	PerturbBatch(m Model, xs *tensor.T, labels []int, eps float64, rngs []*rand.Rand) *tensor.T
}

// fooled reports whether m misclassifies x w.r.t. label.
func fooled(m Model, x *tensor.T, label int) bool {
	return tensor.ArgMax(m.Logits(x)) != label
}

// requireGrad asserts the model supports batched gradients.
func requireGrad(m Model, name string) GradModel {
	g, ok := m.(GradModel)
	if !ok {
		panic("attack: " + name + " requires a gradient model (accurate float DNN)")
	}
	return g
}

// perturbRows crafts each row of xs independently with perturb, the
// per-sample form of an attack that gains nothing from batching.
func perturbRows(xs *tensor.T, labels []int, rngs []*rand.Rand, perturb func(x *tensor.T, label int, rng *rand.Rand) *tensor.T) *tensor.T {
	out := tensor.New(xs.Shape...)
	for r := 0; r < xs.Rows(); r++ {
		copy(out.Row(r).Data, perturb(xs.Row(r), labels[r], rngs[r]).Data)
	}
	return out
}

// stepL2 moves x along the L2-normalised direction d by length alpha.
func stepL2(x, d *tensor.T, alpha float64) {
	n := d.L2Norm()
	if n == 0 {
		return
	}
	x.AddScaled(float32(alpha/n), d)
}

// gaussianDir fills a fresh tensor with standard normal noise.
func gaussianDir(shape []int, rng *rand.Rand) *tensor.T {
	d := tensor.New(shape...)
	for i := range d.Data {
		d.Data[i] = float32(rng.NormFloat64())
	}
	return d
}

// uniformDir fills a fresh tensor with uniform noise in [-1, 1].
func uniformDir(shape []int, rng *rand.Rand) *tensor.T {
	d := tensor.New(shape...)
	for i := range d.Data {
		d.Data[i] = float32(float64(rng.Float64())*2 - 1)
	}
	return d
}

// stepL2Rows applies stepL2 row by row with a shared step length.
func stepL2Rows(x, d *tensor.T, alpha float64) {
	for r := 0; r < x.Rows(); r++ {
		stepL2(x.Row(r), d.Row(r), alpha)
	}
}

// project applies the norm-appropriate projection of adv into the
// eps-ball around x.
func project(norm Norm, adv, x *tensor.T, eps float64) {
	if norm == Linf {
		tensor.ProjectLinf(adv, x, eps)
	} else {
		tensor.ProjectL2(adv, x, eps)
	}
}

// projectRows applies the norm-appropriate per-row projection of adv
// into the eps-ball around the matching row of x.
func projectRows(norm Norm, adv, x *tensor.T, eps float64) {
	if norm == Linf {
		tensor.ProjectLinfRows(adv, x, eps)
	} else {
		tensor.ProjectL2Rows(adv, x, eps)
	}
}

// TableI returns the paper's ten-attack suite in Table I order.
func TableI() []Attack {
	return []Attack{
		NewFGM(L2), NewFGM(Linf),
		NewBIM(L2), NewBIM(Linf),
		NewPGD(L2), NewPGD(Linf),
		NewCR(),
		NewRAG(),
		NewRAU(L2), NewRAU(Linf),
	}
}

// All returns every registered attack: the Table I suite followed by
// the universal/momentum extension family (MI-FGSM and the UAP set
// attack). The PGD restart wrapper is configuration (see NewRestart
// and experiment.AttackParams), not a registry entry.
func All() []Attack {
	return append(TableI(),
		NewMIFGSM(L2), NewMIFGSM(Linf),
		NewUAP(L2), NewUAP(Linf),
	)
}

// Names lists the attack names of the full suite, Table I first —
// the valid values for spec files and -attack flags.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name()
	}
	return names
}

// Find returns the attack whose Name matches, or the canonical
// unknown-attack error naming the valid set. Every surface that
// resolves attack names — flag parsing, spec validation, defense
// configuration — reports the same message through it.
func Find(name string) (Attack, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown attack %q (have: %v)", name, Names())
}

// ByName returns the attack whose Name matches, or nil. Callers that
// need the error message should use Find.
func ByName(name string) Attack {
	a, _ := Find(name)
	return a
}

// Configurable is implemented by attacks with exported tunable
// parameters: ConfigKey must fold every parameter that affects
// crafting into the returned string. Attacks fully determined by
// their constructor (CR, RAG, RAU — no exported knobs) don't need it;
// their Name suffices.
type Configurable interface {
	ConfigKey() string
}

// ConfigKey identifies an attack together with every tunable
// parameter that affects crafting. Caches of crafted examples must
// key on it rather than Name(): two BIM instances named "BIM-linf"
// with different step counts craft different examples.
func ConfigKey(a Attack) string {
	if c, ok := a.(Configurable); ok {
		return c.ConfigKey()
	}
	return a.Name()
}
