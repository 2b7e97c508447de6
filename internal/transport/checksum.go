package transport

import (
	"bytes"
	"hash/crc32"
	"math/bits"
)

// Zero-run CRC-32C.
//
// Most bytes on the simulated wire are the world view's synthetic video
// fill, which is all zeros by the wire contract (sensors/codec.go). A
// fragment that carries fill holds only its head bytes; checksumZeros
// folds the chunk's n trailing zeros into the CRC register with
// precomputed shift tables and reads no fill byte. A run of exactly MTU
// zeros — every full mid-fill fragment — has its own table; any other
// run is a sum of power-of-two blocks, each with its own table.
//
// checksum serves dense buffers, the framed TCP stream's frames, whose
// zeros are real bytes: it splits a buffer into a head and a trailing
// zero run, verifies the run with bytes.Equal (so every byte is still
// read) and folds it by table.
//
// Both equal crc32.Checksum over the logical bytes for every input —
// hostile, corrupted and non-zero bytes included; only the cost differs.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	// The ladder's blocks span 1 B to 4 KiB; a longer run repeats the
	// top block.
	zeroBlockMaxLog = 12
	zeroBlockMax    = 1 << zeroBlockMaxLog
	// checksum compares trailing runs in blocks of at least 1 KiB: for a
	// shorter run the compare call and the table folds cost about what
	// the CRC instructions save.
	denseMinLog = 10
	denseMin    = 1 << denseMinLog
)

// zeroPage is the all-zero reference a dense tail is compared against.
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
	// blockShift[k] folds 1<<k zeros.
	blockShift = func() (t [zeroBlockMaxLog + 1]*zeroShift) {
		for k := range t {
			t[k] = newZeroShift(1 << k)
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

// foldZeros appends n zero bytes to a raw CRC-32C register. The shifts
// commute — each is a power of the one-byte step — so the order of the
// blocks does not matter.
func foldZeros(reg uint32, n int) uint32 {
	if n == MTU {
		return mtuShift.apply(reg)
	}
	for ; n >= zeroBlockMax; n -= zeroBlockMax {
		reg = blockShift[zeroBlockMaxLog].apply(reg)
	}
	for ; n > 0; n &= n - 1 {
		reg = blockShift[bits.TrailingZeros(uint(n))].apply(reg)
	}
	return reg
}

// checksumZeros returns crc32.Checksum of head followed by n zero
// bytes, without the zeros.
func checksumZeros(head []byte, n int) uint32 {
	return ^foldZeros(^crc32.Checksum(head, crcTable), n)
}

// checksum returns crc32.Checksum(b, crcTable), folding a trailing run
// of zeros by table instead of computing over it.
func checksum(b []byte) uint32 {
	n := len(b)
	if n < min(MTU, denseMin) || b[n-1] != 0 {
		return crc32.Checksum(b, crcTable)
	}
	z := 0
	if n >= MTU && b[n-MTU] == 0 && bytes.Equal(b[n-MTU:], zeroPage[:MTU]) {
		z = MTU
	}
	// Ladder down from the largest block that fits; below the top, a
	// block fits at most once, since the next larger one failed. The
	// single-byte tests skip compares bound to fail at a block's first or
	// last byte; bytes.Equal still reads every byte it folds.
	for k := min(bits.Len(uint(n-z))-1, zeroBlockMaxLog); k >= denseMinLog; k-- {
		s := 1 << k
		for e := n - z; e >= s && b[e-1] == 0 && b[e-s] == 0 && bytes.Equal(b[e-s:e], zeroPage[:s]); e -= s {
			z += s
		}
	}
	return checksumZeros(b[:n-z], z)
}
