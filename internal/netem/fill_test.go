package netem

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"teledrive/internal/simclock"
)

// TestFillLinkMatchesDenseLink pins the elided-zeros contract: a link
// fed SendFill and a link fed Send of the same wire bytes, with one seed
// and a rule that corrupts every packet, duplicates some and rate-limits
// all of them, deliver the same wire bytes at the same times with the
// same flags, and end with the same Stats and capture sizes. A pooled
// fill link recycles its clones; the zeros a corrupting bit lands in
// are written out, every other packet keeps them elided.
func TestFillLinkMatchesDenseLink(t *testing.T) {
	rule := Rule{
		Delay: 20 * time.Millisecond, Jitter: 8 * time.Millisecond,
		Loss: 0.05, Duplicate: 0.3, Corrupt: 1, Rate: 2 << 20,
	}
	type pkt struct {
		payload       []byte
		zeroAt, zeros int
	}
	rng := rand.New(rand.NewSource(26))
	var pkts []pkt
	for i := 0; i < 400; i++ {
		p := make([]byte, rng.Intn(64))
		rng.Read(p)
		zeros := []int{0, 1, 7, 1400, rng.Intn(3000)}[rng.Intn(5)]
		pkts = append(pkts, pkt{p, rng.Intn(len(p) + 1), zeros})
	}
	type got struct {
		wire                 []byte
		seq                  uint64
		sentAt, deliveredAt  time.Duration
		corrupted, duplicate bool
	}
	run := func(fill, pooled bool) ([]got, Stats, []CaptureRecord, int) {
		clk := simclock.New()
		var out []got
		elided := 0
		capture := Tap(func(p Packet) {
			if p.Zeros > 0 {
				elided++
			}
			out = append(out, got{p.AppendWire(nil), p.Seq, p.SentAt, p.DeliveredAt, p.Corrupted, p.Duplicate})
		}, 0)
		link := NewLink("fill", clk, 9, capture.Receive)
		if pooled {
			link.SetBufferPool(NewBufferPool())
		}
		if err := link.AddRule(rule); err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			if fill {
				link.SendFill(p.payload, p.zeroAt, p.zeros)
			} else {
				link.Send(Packet{Payload: p.payload, ZeroAt: p.zeroAt, Zeros: p.zeros}.AppendWire(nil))
			}
			clk.Advance(time.Millisecond)
		}
		clk.Advance(time.Second)
		return out, link.Stats(), capture.Records(), elided
	}
	dense, denseStats, denseRecs, _ := run(false, false)
	if denseStats.CorruptedN == 0 || denseStats.Duplicated == 0 || denseStats.Lost == 0 {
		t.Fatalf("rule exercised too little: %+v", denseStats)
	}
	for _, pooled := range []bool{false, true} {
		fill, fillStats, fillRecs, elided := run(true, pooled)
		if fillStats != denseStats {
			t.Fatalf("pooled=%v: stats %+v, dense link %+v", pooled, fillStats, denseStats)
		}
		if len(fill) != len(dense) {
			t.Fatalf("pooled=%v: %d deliveries, dense link %d", pooled, len(fill), len(dense))
		}
		for i := range dense {
			d, f := dense[i], fill[i]
			if !bytes.Equal(f.wire, d.wire) || f.seq != d.seq || f.sentAt != d.sentAt ||
				f.deliveredAt != d.deliveredAt || f.corrupted != d.corrupted || f.duplicate != d.duplicate {
				t.Fatalf("pooled=%v: delivery %d differs from the dense link's", pooled, i)
			}
			if fillRecs[i] != denseRecs[i] {
				t.Fatalf("pooled=%v: capture record %d = %+v, dense link %+v", pooled, i, fillRecs[i], denseRecs[i])
			}
		}
		if elided == 0 {
			t.Fatalf("pooled=%v: every corrupted packet had its zeros written out", pooled)
		}
	}
}

// TestSendFillRejectsBadZeros: zeros outside the payload are a wiring
// error, not a packet.
func TestSendFillRejectsBadZeros(t *testing.T) {
	for _, tc := range []struct{ zeroAt, zeros int }{{-1, 1}, {4, 1}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SendFill(3 B, %d, %d) did not panic", tc.zeroAt, tc.zeros)
				}
			}()
			_, link, _ := newTestLink(t, 1)
			link.SendFill([]byte("abc"), tc.zeroAt, tc.zeros)
		}()
	}
}
