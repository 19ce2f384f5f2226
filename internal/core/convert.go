package core

import (
	"encoding/binary"
	"math"
)

// Binary conversion helpers between typed slices and the little-endian
// byte buffers SDM moves through its I/O paths.

func bytesToFloat64s(buf []byte) []float64 {
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}

func int32sToBytes(vals []int32) []byte {
	out := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

func bytesToInt32s(buf []byte) []int32 {
	out := make([]int32, len(buf)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out
}
