package netem

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Capture is a tap on a link's delivery path that records per-packet
// timing for offline inspection — the emulator's equivalent of a pcap
// on the loopback interface. Attach it between the link and the real
// receiver with Tap.
type Capture struct {
	next    Receiver
	records []CaptureRecord
	limit   int
}

// CaptureRecord is one captured delivery.
type CaptureRecord struct {
	Seq         uint64
	Size        int // wire bytes, elided zeros included
	SentAt      time.Duration
	DeliveredAt time.Duration
	Corrupted   bool
	Duplicate   bool
}

// Latency returns the packet's time in the network.
func (r CaptureRecord) Latency() time.Duration { return r.DeliveredAt - r.SentAt }

// Tap creates a capture that records every delivered packet and then
// forwards it to next. limit bounds memory (0 = DefaultCaptureLimit).
func Tap(next Receiver, limit int) *Capture {
	if limit <= 0 {
		limit = DefaultCaptureLimit
	}
	return &Capture{next: next, limit: limit}
}

// DefaultCaptureLimit bounds capture memory to one million packets.
const DefaultCaptureLimit = 1 << 20

// Receive is the netem.Receiver to install on the link.
func (c *Capture) Receive(p Packet) {
	if len(c.records) < c.limit {
		c.records = append(c.records, CaptureRecord{
			Seq:         p.Seq,
			Size:        p.Len(),
			SentAt:      p.SentAt,
			DeliveredAt: p.DeliveredAt,
			Corrupted:   p.Corrupted,
			Duplicate:   p.Duplicate,
		})
	}
	if c.next != nil {
		c.next(p)
	}
}

// Records returns the captured deliveries (do not mutate).
func (c *Capture) Records() []CaptureRecord { return c.records }

// Reset clears the capture buffer.
func (c *Capture) Reset() { c.records = c.records[:0] }

// Summary is the statistical digest of a capture.
type Summary struct {
	Packets    int
	Bytes      int64
	Corrupted  int
	Duplicates int
	Reordered  int // deliveries whose seq is lower than an earlier one
	// Latency quantiles.
	P0, P50, P95, P99, P100 time.Duration
	// Gaps holds the largest inter-delivery gaps (freeze candidates).
	MaxGap time.Duration
}

// Summarize digests the capture.
func (c *Capture) Summarize() Summary {
	s := Summary{Packets: len(c.records)}
	if s.Packets == 0 {
		return s
	}
	lat := make([]time.Duration, 0, len(c.records))
	var maxSeq uint64
	var prevAt time.Duration
	for i, r := range c.records {
		s.Bytes += int64(r.Size)
		if r.Corrupted {
			s.Corrupted++
		}
		if r.Duplicate {
			s.Duplicates++
		}
		if r.Seq < maxSeq {
			s.Reordered++
		} else {
			maxSeq = r.Seq
		}
		lat = append(lat, r.Latency())
		if i > 0 {
			if gap := r.DeliveredAt - prevAt; gap > s.MaxGap {
				s.MaxGap = gap
			}
		}
		prevAt = r.DeliveredAt
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(f float64) time.Duration { return lat[int(f*float64(len(lat)-1))] }
	s.P0, s.P50, s.P95, s.P99, s.P100 = q(0), q(0.5), q(0.95), q(0.99), q(1)
	return s
}

// WriteHistogram renders an ASCII latency histogram with the given
// number of buckets.
func (c *Capture) WriteHistogram(w io.Writer, buckets int) {
	if len(c.records) == 0 {
		fmt.Fprintln(w, "(no packets captured)")
		return
	}
	if buckets < 2 {
		buckets = 10
	}
	lo, hi := c.records[0].Latency(), c.records[0].Latency()
	for _, r := range c.records {
		l := r.Latency()
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	counts := make([]int, buckets)
	for _, r := range c.records {
		idx := int(float64(r.Latency()-lo) / float64(span) * float64(buckets-1))
		counts[idx]++
	}
	maxCount := 0
	for _, n := range counts {
		if n > maxCount {
			maxCount = n
		}
	}
	for i, n := range counts {
		from := lo + time.Duration(float64(span)*float64(i)/float64(buckets))
		bar := ""
		if maxCount > 0 {
			width := n * 50 / maxCount
			for j := 0; j < width; j++ {
				bar += "#"
			}
		}
		fmt.Fprintf(w, "%12v %6d %s\n", from.Truncate(time.Microsecond), n, bar)
	}
}
