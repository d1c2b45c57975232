package dataset

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Objects generates n CIFAR-like samples: 32x32 RGB images of ten
// procedurally drawn object/texture classes over noisy backgrounds.
// The classes (circle, square, triangle, horizontal stripes, vertical
// stripes, checkerboard, ring, cross, diagonal gradient, blob cluster)
// carry enough intra-class jitter — colour, position, scale, noise —
// that a small CNN lands in the paper's ~80% CIFAR accuracy regime
// rather than saturating.
func Objects(n int, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := &Set{Name: "synth-objects", Classes: 10}
	for i := 0; i < n; i++ {
		c := i % 10
		s.X = append(s.X, renderObject(c, rng))
		s.Y = append(s.Y, c)
	}
	shuffle(s, rng)
	return s
}

func renderObject(class int, rng *rand.Rand) *tensor.T {
	t := tensor.New(3, 32, 32)
	bg := randColor(rng)
	fg := contrastColor(bg, rng)
	// Background with a soft gradient.
	gx := float64(rng.Float64()*0.4) - 0.2
	gy := float64(rng.Float64()*0.4) - 0.2
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			sh := float32(float64(gx*float64(x)/32) + float64(gy*float64(y)/32))
			for ch := 0; ch < 3; ch++ {
				t.Data[ch*1024+y*32+x] = clamp01(bg[ch] + sh)
			}
		}
	}
	cx := 12.0 + float64(rng.Float64()*8.0)
	cy := 12.0 + float64(rng.Float64()*8.0)
	r := 6.0 + float64(rng.Float64()*5.0)
	drawShape(t, class, cx, cy, r, fg, rng)
	addNoise(t, 0.14, rng)
	return t
}

func randColor(rng *rand.Rand) [3]float32 {
	return [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
}

// contrastColor picks a colour far enough from bg to keep shapes
// learnable through the noise.
func contrastColor(bg [3]float32, rng *rand.Rand) [3]float32 {
	for {
		c := randColor(rng)
		var d float32
		for i := 0; i < 3; i++ {
			d += float32((c[i] - bg[i]) * (c[i] - bg[i]))
		}
		if d > 0.45 {
			return c
		}
	}
}

// setPix blends the foreground colour into the image at (x, y) with
// weight w.
func setPix(t *tensor.T, x, y int, fg [3]float32, w float32) {
	if x < 0 || x >= 32 || y < 0 || y >= 32 {
		return
	}
	for ch := 0; ch < 3; ch++ {
		i := ch*1024 + y*32 + x
		t.Data[i] = clamp01(float32(t.Data[i]*(1-w)) + float32(fg[ch]*w))
	}
}

func drawShape(t *tensor.T, class int, cx, cy, r float64, fg [3]float32, rng *rand.Rand) {
	switch class {
	case 0: // filled circle
		forEachPix(func(x, y int) float32 {
			d := dist(x, y, cx, cy)
			return edge(r - d)
		}, t, fg)
	case 1: // filled square
		forEachPix(func(x, y int) float32 {
			dx, dy := math.Abs(float64(x)-cx), math.Abs(float64(y)-cy)
			return edge(float64(r*0.9) - math.Max(dx, dy))
		}, t, fg)
	case 2: // triangle (upward)
		forEachPix(func(x, y int) float32 {
			fx, fy := float64(x)-cx, float64(y)-cy
			if fy < -r || fy > r*0.7 {
				return 0
			}
			half := float64((fy + r) / (1.7 * r) * r)
			return edge(half - math.Abs(fx))
		}, t, fg)
	case 3: // horizontal stripes
		period := 3.0 + float64(rng.Float64()*3.0)
		phase := rng.Float64() * period
		forEachPix(func(x, y int) float32 {
			if math.Mod(float64(y)+phase, period) < period/2 {
				return 0.85
			}
			return 0
		}, t, fg)
	case 4: // vertical stripes
		period := 3.0 + float64(rng.Float64()*3.0)
		phase := rng.Float64() * period
		forEachPix(func(x, y int) float32 {
			if math.Mod(float64(x)+phase, period) < period/2 {
				return 0.85
			}
			return 0
		}, t, fg)
	case 5: // checkerboard
		cell := 3.0 + float64(float64(rng.Float64())*2.0)
		forEachPix(func(x, y int) float32 {
			if (int(float64(x)/cell)+int(float64(y)/cell))%2 == 0 {
				return 0.85
			}
			return 0
		}, t, fg)
	case 6: // ring
		forEachPix(func(x, y int) float32 {
			d := dist(x, y, cx, cy)
			return edge(float64(r*0.35) - math.Abs(d-float64(r*0.8)))
		}, t, fg)
	case 7: // cross
		forEachPix(func(x, y int) float32 {
			dx, dy := math.Abs(float64(x)-cx), math.Abs(float64(y)-cy)
			arm := r * 0.35
			if (dx < arm && dy < r) || (dy < arm && dx < r) {
				return 0.9
			}
			return 0
		}, t, fg)
	case 8: // diagonal gradient overlay
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		forEachPix(func(x, y int) float32 {
			v := (float64(x) + float64(sign*float64(y))) / 64.0
			return float32(math.Mod(math.Abs(v), 1.0)) * 0.9
		}, t, fg)
	case 9: // blob cluster
		nb := 3 + rng.Intn(3)
		type blob struct{ x, y, r float64 }
		blobs := make([]blob, nb)
		for i := range blobs {
			blobs[i] = blob{cx + float64(rng.Float64()*10) - 5, cy + float64(rng.Float64()*10) - 5, 2 + float64(rng.Float64()*3)}
		}
		forEachPix(func(x, y int) float32 {
			var best float32
			for _, b := range blobs {
				if v := edge(b.r - dist(x, y, b.x, b.y)); v > best {
					best = v
				}
			}
			return best
		}, t, fg)
	}
}

func forEachPix(weight func(x, y int) float32, t *tensor.T, fg [3]float32) {
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if w := weight(x, y); w > 0 {
				setPix(t, x, y, fg, w)
			}
		}
	}
}

func dist(x, y int, cx, cy float64) float64 {
	dx, dy := float64(x)-cx, float64(y)-cy
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// edge converts a signed distance to a soft coverage weight.
func edge(d float64) float32 {
	if d <= 0 {
		return 0
	}
	if d >= 1 {
		return 1
	}
	return float32(d)
}
