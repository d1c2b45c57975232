package axmult

// Perforated models partial-product perforation: whole rows of the
// partial-product matrix (selected bits of operand a) are skipped.
// With Compensate set, the expected value of each skipped row under
// uniform operands (P[a_i]=1/2, E[b]=127.5) is added back, making the
// error distribution roughly zero-mean — high variance but low bias,
// the profile of designs that keep clean accuracy despite a large MAE.
type Perforated struct {
	ID         string
	Rows       uint8 // bitmask of rows (bits of a) to skip
	Compensate bool
}

// Name implements Multiplier.
func (m Perforated) Name() string { return m.ID }

// Mul implements Multiplier.
func (m Perforated) Mul(a, b uint8) uint16 {
	kept := a &^ m.Rows
	p := uint32(kept) * uint32(b)
	if m.Compensate {
		p += m.compensation()
	}
	if p > 0xFFFF {
		return 0xFFFF
	}
	return uint16(p)
}

func (m Perforated) compensation() uint32 {
	var e float64
	for i := uint(0); i < 8; i++ {
		if (m.Rows>>i)&1 == 1 {
			e += float64(0.5 * 127.5 * float64(uint32(1)<<i))
		}
	}
	return uint32(e + 0.5)
}
