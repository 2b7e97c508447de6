package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"
)

// Fingerprint returns the SHA-256 hex digest of a canonical binary
// encoding of every field of the run log — header strings, every
// telemetry float, every event record, every condition span. Two logs
// fingerprint equal iff they are bit-identical, which is what makes
// the digest a refactor safety net: a golden set of fingerprints
// recorded before a change to the run machinery pins the exact
// simulated trajectories after it (see internal/session's equivalence
// test and `make fingerprint`).
func Fingerprint(l *RunLog) string {
	e := encoders.Get().(*fpEncoder)
	e.h.Reset()
	e.str(l.Subject)
	e.str(l.Scenario)
	e.str(l.RunType)
	e.u64(uint64(l.Seed))

	// The per-tick series are the bulk of a log: one words call per
	// record.
	f := math.Float64bits
	e.u64(uint64(len(l.Ego)))
	for i := range l.Ego {
		r := &l.Ego[i]
		e.words([]uint64{
			uint64(r.Time), r.Frame,
			f(r.X), f(r.Y), f(r.Z), f(r.Vx), f(r.Vy), f(r.Vz), f(r.Ax), f(r.Ay), f(r.Az),
			f(r.Station), f(r.Lateral), f(r.Speed), f(r.Throttle), f(r.Steer), f(r.Brake),
		})
	}
	e.u64(uint64(len(l.Others)))
	for i := range l.Others {
		o := &l.Others[i]
		e.words([]uint64{
			uint64(o.Actor), uint64(o.Time), o.Frame,
			f(o.Distance), f(o.X), f(o.Y), f(o.Z), f(o.Vx), f(o.Vy), f(o.Vz), f(o.Station), f(o.Lateral), f(o.Speed),
		})
	}
	e.u64(uint64(len(l.Collisions)))
	for _, c := range l.Collisions {
		e.u64(uint64(c.Time))
		e.u64(c.Frame)
		e.u64(uint64(c.Actor))
		e.u64(uint64(c.Other))
		e.f64(c.SpeedA, c.SpeedB)
		e.str(c.Label)
	}
	e.u64(uint64(len(l.LaneInvasions)))
	for _, li := range l.LaneInvasions {
		e.u64(uint64(li.Time))
		e.u64(li.Frame)
		e.u64(uint64(li.Actor))
		e.str(li.Kind)
		e.str(li.LaneID)
		e.f64(li.Lateral)
		e.str(li.Label)
	}
	e.u64(uint64(len(l.Faults)))
	for _, f := range l.Faults {
		e.u64(uint64(f.Time))
		e.str(f.Link)
		e.str(f.Action)
		e.str(f.Desc)
		e.str(f.Label)
	}
	e.u64(uint64(len(l.ConditionSpans)))
	for _, s := range l.ConditionSpans {
		e.str(s.Label)
		e.u64(uint64(s.From))
		e.u64(uint64(s.To))
	}
	digest := e.sum()
	encoders.Put(e) // only after a complete encoding: sum leaves e.n == 0
	return digest
}

// fpEncoder writes the canonical encoding — little-endian uint64s, and
// strings as their length followed by their bytes — into a fixed buffer
// and hands it to the hash a full buffer at a time, so encoding a log
// costs no allocation per value. Encoders are pooled, so a fingerprint
// in steady state allocates only its result string.
type fpEncoder struct {
	h   hash.Hash
	n   int
	buf [4096]byte
}

var encoders = sync.Pool{New: func() any { return &fpEncoder{h: sha256.New()} }}

func (e *fpEncoder) flush() {
	e.h.Write(e.buf[:e.n])
	e.n = 0
}

// words encodes one record's values into a single reserved stretch of
// the buffer. A record is far smaller than the buffer, so one check
// covers all of its values.
func (e *fpEncoder) words(vs []uint64) {
	if e.n+8*len(vs) > len(e.buf) {
		e.flush()
	}
	b := e.buf[e.n : e.n+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	e.n += len(b)
}

func (e *fpEncoder) u64(v uint64) {
	if e.n+8 > len(e.buf) {
		e.flush()
	}
	binary.LittleEndian.PutUint64(e.buf[e.n:], v)
	e.n += 8
}

// f64 encodes the exact IEEE-754 bit patterns, so fingerprints
// distinguish values that print identically (and even -0 from +0).
func (e *fpEncoder) f64(vs ...float64) {
	for _, v := range vs {
		e.u64(math.Float64bits(v))
	}
}

func (e *fpEncoder) str(s string) {
	e.u64(uint64(len(s)))
	for len(s) > 0 {
		if e.n == len(e.buf) {
			e.flush()
		}
		k := copy(e.buf[e.n:], s)
		e.n += k
		s = s[k:]
	}
}

// sum flushes the buffer and returns the hex digest, reusing the buffer
// for the digest bytes and their hex form.
func (e *fpEncoder) sum() string {
	e.flush()
	d := e.h.Sum(e.buf[:0])
	hex.Encode(e.buf[len(d):], d)
	return string(e.buf[len(d) : 3*len(d)])
}
