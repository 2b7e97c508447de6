package transport

import (
	"bytes"
	"hash/crc32"
	"math/bits"
)

// Zero-run CRC-32C.
//
// Most bytes on the simulated wire are the world view's synthetic video
// fill, which is all zeros by the wire contract (sensors/codec.go): a
// full mid-message fragment frame is a 32-byte header followed by
// exactly MTU zeros. checksum splits a buffer into a head and a trailing
// run of zeros. The head goes through crc32; the run is verified to be
// zero with bytes.Equal (so every byte is still read) and folded into
// the CRC register with a precomputed shift table instead of the CRC
// instructions. A run of exactly MTU bytes has its own table; any other
// run is a sum of power-of-two blocks, each with its own table.
//
// The result equals crc32.Checksum(b, crcTable) for every input —
// hostile, corrupted and non-zero bytes included; only the cost differs.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	// Ladder blocks span 1 KiB to 4 KiB; a longer run repeats the top
	// block. For a shorter run the compare call and the table folds cost
	// about what the CRC instructions save.
	zeroBlockMinLog = 10
	zeroBlockMaxLog = 12
	zeroBlockMin    = 1 << zeroBlockMinLog
	zeroBlockMax    = 1 << zeroBlockMaxLog
)

// zeroPage is the all-zero reference the tail is compared against.
var zeroPage [zeroBlockMax]byte

// zeroShift folds a run of zero bytes into a raw (non-inverted) CRC-32C
// register. Appending zeros is linear over GF(2), so the operator splits
// into four byte-indexed tables.
type zeroShift [4][256]uint32

func (t *zeroShift) apply(reg uint32) uint32 {
	return t[0][byte(reg)] ^ t[1][byte(reg>>8)] ^ t[2][byte(reg>>16)] ^ t[3][reg>>24]
}

var (
	// mtuShift folds exactly MTU zeros: every full mid-fragment's fill.
	mtuShift = newZeroShift(MTU)
	// blockShift[k] folds 1<<(k+zeroBlockMinLog) zeros.
	blockShift = func() (t [zeroBlockMaxLog - zeroBlockMinLog + 1]*zeroShift) {
		for k := range t {
			t[k] = newZeroShift(1 << (k + zeroBlockMinLog))
		}
		return t
	}()
)

// newZeroShift builds the table that appends n zero bytes: the images
// of the 32 unit registers after n zero-byte steps, expanded by
// linearity into four byte-indexed tables.
func newZeroShift(n int) *zeroShift {
	var col [32]uint32
	for i := range col {
		r := uint32(1) << i
		for range n {
			r = crcTable[byte(r)] ^ r>>8
		}
		col[i] = r
	}
	t := new(zeroShift)
	for j := range t {
		for v := 1; v < 256; v++ {
			bit := bits.TrailingZeros(uint(v))
			t[j][v] = t[j][v&^(1<<bit)] ^ col[8*j+bit]
		}
	}
	return t
}

// checksum returns crc32.Checksum(b, crcTable), folding a trailing run
// of zeros by table instead of computing over it.
func checksum(b []byte) uint32 {
	n := len(b)
	if n < min(MTU, zeroBlockMin) || b[n-1] != 0 {
		return crc32.Checksum(b, crcTable)
	}
	mtu := false
	if n >= MTU && b[n-MTU] == 0 && bytes.Equal(b[n-MTU:], zeroPage[:MTU]) {
		n -= MTU
		mtu = true
	}
	// Ladder down from the largest block that fits; below the top, a
	// block fits at most once, since the next larger one failed. The
	// single-byte tests skip compares bound to fail at a block's first or
	// last byte; bytes.Equal still reads every byte it folds.
	z := 0
	for k := min(bits.Len(uint(n))-1, zeroBlockMaxLog); k >= zeroBlockMinLog; k-- {
		s := 1 << k
		for n >= s && b[n-1] == 0 && b[n-s] == 0 && bytes.Equal(b[n-s:n], zeroPage[:s]) {
			n -= s
			z += s
		}
	}
	reg := ^crc32.Checksum(b[:n], crcTable)
	if mtu {
		reg = mtuShift.apply(reg)
	}
	for k := zeroBlockMaxLog; z > 0; k-- {
		for s := 1 << k; z >= s; z -= s {
			reg = blockShift[k-zeroBlockMinLog].apply(reg)
		}
	}
	return ^reg
}
