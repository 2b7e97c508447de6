package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"teledrive/internal/world"
)

// refFingerprint is the reference encoder: the canonical encoding
// written to SHA-256 one value at a time. The buffered Fingerprint
// must produce the same digest bytes.
func refFingerprint(l *RunLog) string {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	f64 := func(vs ...float64) {
		for _, v := range vs {
			u64(math.Float64bits(v))
		}
	}
	str(l.Subject)
	str(l.Scenario)
	str(l.RunType)
	u64(uint64(l.Seed))
	u64(uint64(len(l.Ego)))
	for _, e := range l.Ego {
		u64(uint64(e.Time))
		u64(e.Frame)
		f64(e.X, e.Y, e.Z, e.Vx, e.Vy, e.Vz, e.Ax, e.Ay, e.Az)
		f64(e.Station, e.Lateral, e.Speed, e.Throttle, e.Steer, e.Brake)
	}
	u64(uint64(len(l.Others)))
	for _, o := range l.Others {
		u64(uint64(o.Actor))
		u64(uint64(o.Time))
		u64(o.Frame)
		f64(o.Distance, o.X, o.Y, o.Z, o.Vx, o.Vy, o.Vz, o.Station, o.Lateral, o.Speed)
	}
	u64(uint64(len(l.Collisions)))
	for _, c := range l.Collisions {
		u64(uint64(c.Time))
		u64(c.Frame)
		u64(uint64(c.Actor))
		u64(uint64(c.Other))
		f64(c.SpeedA, c.SpeedB)
		str(c.Label)
	}
	u64(uint64(len(l.LaneInvasions)))
	for _, li := range l.LaneInvasions {
		u64(uint64(li.Time))
		u64(li.Frame)
		u64(uint64(li.Actor))
		str(li.Kind)
		str(li.LaneID)
		f64(li.Lateral)
		str(li.Label)
	}
	u64(uint64(len(l.Faults)))
	for _, f := range l.Faults {
		u64(uint64(f.Time))
		str(f.Link)
		str(f.Action)
		str(f.Desc)
		str(f.Label)
	}
	u64(uint64(len(l.ConditionSpans)))
	for _, s := range l.ConditionSpans {
		str(s.Label)
		u64(uint64(s.From))
		u64(uint64(s.To))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// randString returns a string of n random bytes; lengths range up to
// well past the encoder's 4 KiB buffer.
func randString(rng *rand.Rand) string {
	var n int
	switch rng.Intn(4) {
	case 0:
		n = 0
	case 1:
		n = rng.Intn(16)
	case 2:
		n = rng.Intn(5000)
	default:
		n = 4096 + rng.Intn(9000)
	}
	b := make([]byte, n)
	rng.Read(b)
	return string(b)
}

// randFloat mixes ordinary values with the bit patterns a fingerprint
// must tell apart.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(rng.Intn(2)*2 - 1)
	case 3:
		// A NaN with a random sign and payload, quiet or signalling.
		return math.Float64frombits(rng.Uint64()&(1<<63|1<<52-1) | 0x7ff<<52 | 1)
	default:
		return rng.NormFloat64() * 100
	}
}

func randomLog(rng *rand.Rand) *RunLog {
	l := &RunLog{
		Subject: randString(rng), Scenario: randString(rng), RunType: randString(rng),
		Seed: rng.Int63() - rng.Int63(),
	}
	f := func() float64 { return randFloat(rng) }
	d := func() time.Duration { return time.Duration(rng.Int63()) }
	for range rng.Intn(400) {
		l.Ego = append(l.Ego, EgoRecord{Time: d(), Frame: rng.Uint64(),
			X: f(), Y: f(), Z: f(), Vx: f(), Vy: f(), Vz: f(), Ax: f(), Ay: f(), Az: f(),
			Station: f(), Lateral: f(), Speed: f(), Throttle: f(), Steer: f(), Brake: f()})
	}
	for range rng.Intn(400) {
		l.Others = append(l.Others, OtherRecord{Actor: world.ActorID(rng.Intn(9)), Time: d(), Frame: rng.Uint64(),
			Distance: f(), X: f(), Y: f(), Z: f(), Vx: f(), Vy: f(), Vz: f(), Station: f(), Lateral: f(), Speed: f()})
	}
	for range rng.Intn(4) {
		l.Collisions = append(l.Collisions, CollisionRecord{Time: d(), Frame: rng.Uint64(),
			Actor: world.ActorID(rng.Intn(9)), Other: world.ActorID(rng.Intn(9)), SpeedA: f(), SpeedB: f(), Label: randString(rng)})
	}
	for range rng.Intn(4) {
		l.LaneInvasions = append(l.LaneInvasions, LaneRecord{Time: d(), Frame: rng.Uint64(),
			Actor: world.ActorID(rng.Intn(9)), Kind: randString(rng), LaneID: randString(rng), Lateral: f(), Label: randString(rng)})
	}
	for range rng.Intn(4) {
		l.Faults = append(l.Faults, FaultRecord{Time: d(), Link: randString(rng), Action: randString(rng),
			Desc: randString(rng), Label: randString(rng)})
	}
	for range rng.Intn(4) {
		l.ConditionSpans = append(l.ConditionSpans, ConditionSpan{Label: randString(rng), From: d(), To: d()})
	}
	return l
}

func TestFingerprintMatchesReferenceEncoder(t *testing.T) {
	logs := []*RunLog{
		{}, // empty log: only the header and six zero counts
		{Subject: strings.Repeat("s", 4096), Scenario: strings.Repeat("x", 3*4096+5)},
	}
	rng := rand.New(rand.NewSource(15))
	for range 60 {
		logs = append(logs, randomLog(rng))
	}
	for i, l := range logs {
		if got, want := Fingerprint(l), refFingerprint(l); got != want {
			t.Fatalf("log %d: Fingerprint = %s, reference encoder = %s", i, got, want)
		}
	}
}

// TestFingerprintRecordsStraddleBuffer sweeps the per-tick record
// counts, and the header length that shifts where the records start,
// across the encoder's 4 KiB buffer boundaries: an Ego record (136 B)
// or Other record (104 B) that does not fit must flush first and
// encode exactly as the per-value reference encoder does.
func TestFingerprintRecordsStraddleBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := func() float64 { return randFloat(rng) }
	for _, pad := range []int{0, 1, 8, 67, 135} {
		for n := 0; n <= 90; n++ {
			l := &RunLog{Subject: strings.Repeat("p", pad), Seed: int64(n)}
			for range n {
				l.Ego = append(l.Ego, EgoRecord{Time: time.Duration(rng.Int63()), Frame: rng.Uint64(),
					X: f(), Y: f(), Z: f(), Vx: f(), Vy: f(), Vz: f(), Ax: f(), Ay: f(), Az: f(),
					Station: f(), Lateral: f(), Speed: f(), Throttle: f(), Steer: f(), Brake: f()})
				l.Others = append(l.Others, OtherRecord{Actor: world.ActorID(rng.Intn(9)), Time: time.Duration(rng.Int63()), Frame: rng.Uint64(),
					Distance: f(), X: f(), Y: f(), Z: f(), Vx: f(), Vy: f(), Vz: f(), Station: f(), Lateral: f(), Speed: f()})
			}
			if got, want := Fingerprint(l), refFingerprint(l); got != want {
				t.Fatalf("pad %d, %d records: Fingerprint = %s, reference encoder = %s", pad, n, got, want)
			}
		}
	}
}
