package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/tensor"
)

// TestDecodeTensorOverflowingShape: dims whose product overflows int
// must be rejected as a bad frame. Unchecked, [2^24, 2^24, 2^15] wraps
// the volume to -2^63 and 4*vol to 0, so an empty payload passed the
// length check and the allocation panicked.
func TestDecodeTensorOverflowingShape(t *testing.T) {
	for _, dims := range [][]uint32{
		{1 << 24, 1 << 24, 1 << 15},
		{1 << 24, 1 << 24, 1 << 24, 1 << 24},
		{2, 1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24},
	} {
		buf := []byte(tensorMagic)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dims)))
		for _, d := range dims {
			buf = binary.LittleEndian.AppendUint32(buf, d)
		}
		for _, payload := range [][]byte{nil, make([]byte, 16)} {
			if got, err := decodeTensor(append(buf, payload...)); err == nil {
				t.Fatalf("dims %v with %d-byte payload decoded to shape %v, want an error", dims, len(payload), got.Shape)
			}
		}
	}
}

// FuzzDecodeTensor: decoding arbitrary bytes never panics, a decoded
// tensor's length equals the volume of its shape, and whatever decodes
// re-encodes to the same bytes.
func FuzzDecodeTensor(f *testing.F) {
	f.Add(encodeTensor(tensor.FromSlice([]float32{0, -1.5, 3e38, 1e-45}, 2, 2)))
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, err := decodeTensor(buf)
		if err != nil {
			return
		}
		vol := 1
		for _, d := range got.Shape {
			vol *= d
		}
		if got.Len() != vol {
			t.Fatalf("decoded %d elements for shape %v", got.Len(), got.Shape)
		}
		if re := encodeTensor(got); !bytes.Equal(re, buf) {
			t.Fatalf("round trip changed the frame:\n in %x\nout %x", buf, re)
		}
	})
}

// FuzzDecodePreds: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to the same bytes.
func FuzzDecodePreds(f *testing.F) {
	f.Add(encodePreds([]int{0, 9, -1, 1 << 30}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, err := decodePreds(buf)
		if err != nil {
			return
		}
		if re := encodePreds(got); !bytes.Equal(re, buf) {
			t.Fatalf("round trip changed the frame:\n in %x\nout %x", buf, re)
		}
	})
}
