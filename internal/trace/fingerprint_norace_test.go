//go:build !race

package trace

import (
	"math/rand"
	"testing"
)

// TestFingerprintAllocs pins the buffered encoder: a fingerprint
// allocates its result string, not one buffer per encoded value. The
// race detector makes sync.Pool drop entries at random, hence !race.
func TestFingerprintAllocs(t *testing.T) {
	l := randomLog(rand.New(rand.NewSource(8)))
	if n := testing.AllocsPerRun(50, func() { Fingerprint(l) }); n > 2 {
		t.Fatalf("Fingerprint allocates %v objects per call, want <= 2", n)
	}
}
