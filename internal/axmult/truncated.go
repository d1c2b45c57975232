package axmult

// TruncMult drops the Cut least-significant partial-product columns of
// the 8x8 array (fixed-width truncation, the cheapest approximate
// multiplier family). If Compensate is true a constant equal to the
// expected value of the dropped columns (operands uniform) is added
// back, turning a downward-biased design into a near-zero-mean one.
type TruncMult struct {
	ID         string
	Cut        uint
	Compensate bool
}

// Name implements Multiplier.
func (m TruncMult) Name() string { return m.ID }

// Mul implements Multiplier.
func (m TruncMult) Mul(a, b uint8) uint16 {
	cols := partialProducts(a, b, func(i, j uint) bool { return i+j >= m.Cut })
	p := uint32(sumColumns(cols))
	if m.Compensate {
		p += truncCompensation(m.Cut)
	}
	if p > 0xFFFF {
		return 0xFFFF
	}
	return uint16(p)
}

// truncCompensation returns the expected value of the dropped columns:
// column c of an 8x8 array has min(c+1, 15-c, 8) partial products, each
// one with probability 1/4 under uniform operands.
func truncCompensation(cut uint) uint32 {
	var e float64
	for c := uint(0); c < cut && c < 16; c++ {
		n := int(c) + 1
		if v := 15 - int(c); v < n {
			n = v
		}
		if n > 8 {
			n = 8
		}
		e += float64(float64(n) * 0.25 * float64(uint32(1)<<c))
	}
	return uint32(e + 0.5)
}

// BrokenArray models a broken-array multiplier (BAM): partial products
// are omitted below a vertical break (columns < VBreak) and, in
// addition, the HRows least-significant rows of the array are cut
// entirely (horizontal break). Both cuts bias the product downward.
type BrokenArray struct {
	ID     string
	VBreak uint // drop partial products with i+j < VBreak
	HRows  uint // drop partial products with row i < HRows
}

// Name implements Multiplier.
func (m BrokenArray) Name() string { return m.ID }

// Mul implements Multiplier.
func (m BrokenArray) Mul(a, b uint8) uint16 {
	cols := partialProducts(a, b, func(i, j uint) bool {
		return i+j >= m.VBreak && i >= m.HRows
	})
	return sumColumns(cols)
}
