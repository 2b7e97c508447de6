// Package netem is a userspace re-implementation of the Linux NETEM
// queuing discipline used by the paper for network fault injection.
//
// A Link models the egress path of one network interface. Packets
// submitted with Send traverse an emulated qdisc that can impose delay
// (with jitter, correlation, and a choice of distributions), random or
// bursty (Gilbert–Elliott) loss, duplication, corruption, reordering, and
// token-bucket rate limiting with a bounded queue — the full fault
// taxonomy of `tc qdisc ... netem ...` as described in the paper §II-C.
//
// Rules are installed and removed at runtime (AddRule/DeleteRule), just
// as the paper's injector adds and deletes tc rules around points of
// interest. Without a rule the link is transparent: packets are delivered
// on the next clock event with zero added delay.
//
// The link is driven entirely by a simclock.Clock, so a run is
// deterministic given its seed. Delivery order follows the emulated
// departure times; as with real netem, delay jitter may reorder packets
// unless a rate limit serializes them.
package netem

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"teledrive/internal/simclock"
)

// Distribution selects the shape of the delay-jitter distribution,
// mirroring netem's `distribution` parameter.
type Distribution int

const (
	// DistUniform draws jitter uniformly from [-jitter, +jitter]
	// (netem's default).
	DistUniform Distribution = iota
	// DistNormal draws jitter from a normal distribution with σ = jitter,
	// truncated at ±3σ.
	DistNormal
	// DistPareto draws heavy-tailed positive jitter with scale = jitter,
	// truncated at 10× scale.
	DistPareto
)

// String returns the tc-style name of the distribution.
func (d Distribution) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistNormal:
		return "normal"
	case DistPareto:
		return "pareto"
	default:
		return fmt.Sprintf("distribution(%d)", int(d))
	}
}

// GilbertElliott parameterizes the two-state burst-loss model. When
// attached to a rule it replaces the i.i.d. loss probability.
type GilbertElliott struct {
	PGoodToBad float64 // transition probability good→bad per packet
	PBadToGood float64 // transition probability bad→good per packet
	LossGood   float64 // loss probability in the good state
	LossBad    float64 // loss probability in the bad state
}

// Rule is one netem configuration, the equivalent of a single
// `tc qdisc add dev <if> root netem ...` invocation.
type Rule struct {
	// Delay is the base one-way delay added to every packet.
	Delay time.Duration
	// Jitter is the delay variation magnitude. Zero disables jitter.
	Jitter time.Duration
	// DelayCorr in [0,1] correlates successive jitter draws.
	DelayCorr float64
	// Dist selects the jitter distribution.
	Dist Distribution

	// Loss is the i.i.d. packet-loss probability in [0,1].
	Loss float64
	// LossCorr in [0,1] correlates successive loss decisions.
	LossCorr float64
	// GE, when non-nil, replaces Loss with a Gilbert–Elliott process.
	GE *GilbertElliott

	// Duplicate is the probability a packet is delivered twice.
	Duplicate float64
	// Corrupt is the probability a single bit of the payload is flipped.
	Corrupt float64

	// Reorder is the probability a packet skips the delay queue and is
	// delivered immediately (netem reorder semantics; requires Delay>0
	// to have an effect). Gap is honoured: only every Gap-th candidate
	// is reordered when Gap > 1.
	Reorder float64
	Gap     int

	// Rate limits throughput in bytes/second via serialization delay.
	// Zero means unlimited.
	Rate float64
	// Limit bounds the number of packets in flight through the qdisc;
	// excess packets are tail-dropped. Zero means DefaultLimit.
	Limit int
}

// DefaultLimit is netem's default queue limit in packets.
const DefaultLimit = 1000

// Validate reports an error when probabilities or magnitudes are out of
// range.
func (r Rule) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"loss", r.Loss}, {"loss correlation", r.LossCorr},
		{"delay correlation", r.DelayCorr}, {"duplicate", r.Duplicate},
		{"corrupt", r.Corrupt}, {"reorder", r.Reorder},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netem: %s %v outside [0,1]", p.name, p.v)
		}
	}
	if r.Delay < 0 || r.Jitter < 0 {
		return fmt.Errorf("netem: negative delay %v / jitter %v", r.Delay, r.Jitter)
	}
	if r.Rate < 0 {
		return fmt.Errorf("netem: negative rate %v", r.Rate)
	}
	if r.Limit < 0 {
		return fmt.Errorf("netem: negative limit %d", r.Limit)
	}
	if ge := r.GE; ge != nil {
		for _, p := range []float64{ge.PGoodToBad, ge.PBadToGood, ge.LossGood, ge.LossBad} {
			if p < 0 || p > 1 {
				return fmt.Errorf("netem: gilbert-elliott parameter %v outside [0,1]", p)
			}
		}
	}
	return nil
}

// String renders the rule in tc-like syntax, e.g. "delay 50ms" or
// "loss 5%". Used by the fault-injection log.
func (r Rule) String() string {
	if r == (Rule{}) {
		return "none"
	}
	s := ""
	if r.Delay > 0 || r.Jitter > 0 {
		s += fmt.Sprintf("delay %v", r.Delay)
		if r.Jitter > 0 {
			s += fmt.Sprintf(" %v %s", r.Jitter, r.Dist)
		}
	}
	app := func(format string, args ...any) {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf(format, args...)
	}
	if r.GE != nil {
		app("loss gemodel")
	} else if r.Loss > 0 {
		app("loss %.4g%%", r.Loss*100)
	}
	if r.Duplicate > 0 {
		app("duplicate %.4g%%", r.Duplicate*100)
	}
	if r.Corrupt > 0 {
		app("corrupt %.4g%%", r.Corrupt*100)
	}
	if r.Reorder > 0 {
		app("reorder %.4g%%", r.Reorder*100)
	}
	if r.Rate > 0 {
		app("rate %.4gbps", r.Rate*8)
	}
	if s == "" {
		s = "none"
	}
	return s
}

// Packet is a unit of transmission through a Link.
//
// A packet's wire bytes are Payload[:ZeroAt], then Zeros zero bytes,
// then Payload[ZeroAt:]. The zeros are a length, not bytes: a sender
// whose packet is mostly zeros (the video fill of a camera frame) hands
// the link only the bytes around them, and the link counts them in
// every length decision — BytesSent, rate, capture Size and the
// corrupted bit's position — without copying them. A corrupting bit
// that lands inside them writes them out: the delivered copy is then
// dense, with ZeroAt and Zeros zero.
type Packet struct {
	// Seq is assigned by the link in Send order (starting at 1).
	Seq uint64
	// Payload is the packet body minus the elided zeros. Delivered
	// payloads are private copies; corruption mutates only the copy.
	Payload []byte
	// ZeroAt is where in Payload the Zeros elided zero bytes sit.
	ZeroAt int
	// Zeros counts the zero bytes elided at ZeroAt.
	Zeros int
	// SentAt is the simulated time the packet entered the link.
	SentAt time.Duration
	// DeliveredAt is the simulated time the packet left the link.
	DeliveredAt time.Duration
	// Corrupted marks payloads that had a bit flipped in transit.
	Corrupted bool
	// Duplicate marks the extra copy generated by duplication.
	Duplicate bool
}

// Latency returns the time the packet spent in the link.
func (p Packet) Latency() time.Duration { return p.DeliveredAt - p.SentAt }

// Len returns the packet's wire length, elided zeros included.
func (p Packet) Len() int { return len(p.Payload) + p.Zeros }

// AppendWire appends the packet's wire bytes, elided zeros written out,
// to dst.
func (p Packet) AppendWire(dst []byte) []byte {
	dst = append(dst, p.Payload[:p.ZeroAt]...)
	dst = append(dst, make([]byte, p.Zeros)...)
	return append(dst, p.Payload[p.ZeroAt:]...)
}

// Stats counts link activity since construction.
type Stats struct {
	Sent        uint64 // packets accepted by Send
	Delivered   uint64 // packets handed to the receiver (incl. duplicates)
	Lost        uint64 // packets dropped by the loss process
	TailDropped uint64 // packets dropped by the queue limit
	Duplicated  uint64 // extra copies created
	CorruptedN  uint64 // packets with a flipped bit
	Reordered   uint64 // packets that bypassed the delay queue
	BytesSent   uint64
}

// Receiver consumes packets that exit the link.
type Receiver func(Packet)

// Link is one emulated unidirectional network path.
// Link is not safe for concurrent use; it is driven by the single-threaded
// simulation loop.
type Link struct {
	name    string
	clock   *simclock.Clock
	rng     *rand.Rand
	recv    Receiver
	rule    Rule
	hasRule bool

	stats    Stats
	ins      *Instruments // optional telemetry handles; nil = uninstrumented
	nextSeq  uint64
	inFlight int

	prevJitter   float64 // correlated jitter state, in [-1,1] units
	prevLoss     float64 // correlated loss state
	geBad        bool    // Gilbert–Elliott state
	lastDepart   time.Duration
	reorderCount int

	// bufs, when non-nil, recycles payload clones (see SetBufferPool).
	bufs *BufferPool
	// freeDeliveries recycles the in-flight delivery entries scheduled
	// on the clock, so the per-packet path allocates nothing.
	freeDeliveries []*delivery

	// RuleChanged, when non-nil, is invoked on AddRule/DeleteRule with a
	// tc-style description. The fault injector uses it for the paper's
	// fault-injection log (§V-F).
	RuleChanged func(now time.Duration, action, desc string)
}

// NewLink creates a link delivering packets to recv. The name appears in
// log lines ("uplink"/"downlink" in the RDS). NewLink panics when clock
// or recv is nil — both are wiring errors.
func NewLink(name string, clock *simclock.Clock, seed int64, recv Receiver) *Link {
	if clock == nil || recv == nil {
		panic("netem: NewLink requires a clock and a receiver")
	}
	return &Link{
		name:  name,
		clock: clock,
		rng:   rand.New(rand.NewSource(seed)),
		recv:  recv,
	}
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// SetBufferPool attaches a payload buffer pool: Send clones payloads
// into pooled buffers, and each delivered packet's payload is recycled
// as soon as the receiver's callback returns. The receiver must not
// retain pkt.Payload past the callback — transport.Endpoint.HandlePacket
// honours that (everything it keeps is copied), which is why
// transport.Connect opts its links in. Attach the pool before the first
// Send and never while packets are in flight.
func (l *Link) SetBufferPool(p *BufferPool) { l.bufs = p }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() Stats { return l.stats }

// Rule returns the active rule; ok is false when the link is transparent.
func (l *Link) Rule() (rule Rule, ok bool) { return l.rule, l.hasRule }

// AddRule installs a netem rule, replacing any active rule (tc's
// `qdisc add`/`qdisc change`). It returns an error when the rule is
// invalid; the previous rule is kept in that case.
func (l *Link) AddRule(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	l.rule = r
	l.hasRule = true
	if l.ins != nil {
		l.ins.RuleAdds.Inc()
	}
	if l.RuleChanged != nil {
		l.RuleChanged(l.clock.Now(), "add", r.String())
	}
	return nil
}

// DeleteRule removes the active rule (tc's `qdisc del`). In-flight
// packets retain their already-computed delivery times; this differs
// from kernel netem, which drops the queue, and is the kinder behaviour
// for experiments since deleting a rule never destroys data.
func (l *Link) DeleteRule() {
	wasActive := l.hasRule
	l.rule = Rule{}
	l.hasRule = false
	if wasActive && l.ins != nil {
		l.ins.RuleDeletes.Inc()
	}
	if wasActive && l.RuleChanged != nil {
		l.RuleChanged(l.clock.Now(), "delete", "none")
	}
}

// Send submits a payload to the link. It reports whether the packet was
// accepted (false = tail drop or loss; the packet will never arrive).
// The payload is copied; the caller may reuse the buffer.
func (l *Link) Send(payload []byte) bool { return l.SendFill(payload, 0, 0) }

// SendFill submits a packet whose wire bytes are payload[:zeroAt], then
// zeros zero bytes, then payload[zeroAt:] (see Packet). It behaves as
// Send of those bytes — same RNG draws, timing and counters — but copies
// only payload. SendFill panics when zeroAt lies outside payload or
// zeros is negative, a wiring error.
func (l *Link) SendFill(payload []byte, zeroAt, zeros int) bool {
	if zeroAt < 0 || zeroAt > len(payload) || zeros < 0 {
		panic(fmt.Sprintf("netem: %d zeros at %d in a %d-byte payload", zeros, zeroAt, len(payload)))
	}
	now := l.clock.Now()
	seq := l.nextSeq + 1
	l.nextSeq = seq
	size := len(payload) + zeros
	l.stats.Sent++
	l.stats.BytesSent += uint64(size)
	if l.ins != nil {
		l.ins.Sent.Inc()
		l.ins.BytesSent.Add(uint64(size))
	}
	pkt := Packet{Seq: seq, ZeroAt: zeroAt, Zeros: zeros, SentAt: now}

	if !l.hasRule {
		pkt.Payload = l.clone(payload)
		l.deliverAt(now, pkt)
		return true
	}
	r := l.rule

	// 1. Queue limit (tail drop).
	limit := r.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	if l.inFlight >= limit {
		l.stats.TailDropped++
		if l.ins != nil {
			l.ins.TailDropped.Inc()
		}
		return false
	}

	// 2. Loss process.
	if l.dropByLoss(r) {
		l.stats.Lost++
		if l.ins != nil {
			l.ins.Lost.Inc()
		}
		return false
	}

	pkt.Payload = l.clone(payload)

	// 3. Corruption: flip one random bit of the wire bytes.
	if r.Corrupt > 0 && size > 0 && l.rng.Float64() < r.Corrupt {
		bit := l.rng.Intn(size * 8)
		i := bit / 8
		switch {
		case i >= pkt.ZeroAt+pkt.Zeros:
			i -= pkt.Zeros
		case i >= pkt.ZeroAt:
			l.writeZeros(&pkt)
		}
		pkt.Payload[i] ^= 1 << (bit % 8)
		pkt.Corrupted = true
		l.stats.CorruptedN++
		if l.ins != nil {
			l.ins.Corrupted.Inc()
		}
	}

	// 4. Departure time: serialization (rate) then delay/jitter, with
	// the netem reorder escape hatch.
	depart := now
	if r.Rate > 0 {
		txTime := time.Duration(float64(size) / r.Rate * float64(time.Second))
		if l.lastDepart > depart {
			depart = l.lastDepart
		}
		depart += txTime
		l.lastDepart = depart
		if l.ins != nil {
			l.ins.Throttled.Inc()
		}
	}

	reordered := false
	if r.Reorder > 0 && r.Delay > 0 {
		gap := r.Gap
		if gap < 1 {
			gap = 1
		}
		l.reorderCount++
		if l.reorderCount%gap == 0 && l.rng.Float64() < r.Reorder {
			reordered = true
		}
	}
	if !reordered {
		depart += r.Delay + l.jitterSample(r)
	} else {
		l.stats.Reordered++
		if l.ins != nil {
			l.ins.Reordered.Inc()
		}
	}

	// 5. Duplication: the copy takes an independent delay draw.
	if r.Duplicate > 0 && l.rng.Float64() < r.Duplicate {
		dup := pkt
		dup.Payload = l.clone(pkt.Payload)
		dup.Duplicate = true
		dupDepart := now + r.Delay + l.jitterSample(r)
		l.stats.Duplicated++
		if l.ins != nil {
			l.ins.Duplicated.Inc()
		}
		l.deliverAt(dupDepart, dup)
	}

	l.deliverAt(depart, pkt)
	return true
}

// InFlight returns the number of packets currently traversing the link.
func (l *Link) InFlight() int { return l.inFlight }

// delivery is one scheduled packet hand-off. Entries implement
// simclock.TimerTask and cycle through the link's freelist, so the
// per-packet schedule→fire path allocates neither a closure nor a timer.
type delivery struct {
	link *Link
	pkt  Packet
}

// Fire delivers the packet. The entry is recycled before the receiver
// runs (the receiver may Send, scheduling new deliveries that reuse this
// very entry); the payload is recycled after, under the SetBufferPool
// no-retention contract.
func (d *delivery) Fire(now time.Duration) {
	l := d.link
	pkt := d.pkt
	d.link = nil
	d.pkt = Packet{}
	l.freeDeliveries = append(l.freeDeliveries, d)

	l.inFlight--
	pkt.DeliveredAt = now
	l.stats.Delivered++
	if l.ins != nil {
		l.ins.Delivered.Inc()
		l.ins.QueueDepth.Set(int64(l.inFlight))
	}
	l.recv(pkt)
	if l.bufs != nil {
		l.bufs.Put(pkt.Payload)
	}
}

func (l *Link) deliverAt(at time.Duration, pkt Packet) {
	l.inFlight++
	if l.ins != nil {
		l.ins.QueueDepth.Set(int64(l.inFlight))
	}
	var d *delivery
	if n := len(l.freeDeliveries); n > 0 {
		d = l.freeDeliveries[n-1]
		l.freeDeliveries[n-1] = nil
		l.freeDeliveries = l.freeDeliveries[:n-1]
	} else {
		d = &delivery{}
	}
	d.link = l
	d.pkt = pkt
	l.clock.ScheduleTaskAt(at, d)
}

// dropByLoss runs the configured loss process for one packet.
func (l *Link) dropByLoss(r Rule) bool {
	if ge := r.GE; ge != nil {
		// Advance the channel state, then draw a loss in that state.
		if l.geBad {
			if l.rng.Float64() < ge.PBadToGood {
				l.geBad = false
			}
		} else {
			if l.rng.Float64() < ge.PGoodToBad {
				l.geBad = true
			}
		}
		p := ge.LossGood
		if l.geBad {
			p = ge.LossBad
		}
		return l.rng.Float64() < p
	}
	if r.Loss <= 0 {
		return false
	}
	// netem's correlated-loss recurrence: mix the previous draw into the
	// current one.
	x := l.rng.Float64()
	if r.LossCorr > 0 {
		x = r.LossCorr*l.prevLoss + (1-r.LossCorr)*x
	}
	l.prevLoss = x
	return x < r.Loss
}

// jitterSample draws one jitter value according to the rule. The result
// is clamped so the total added delay never goes negative.
func (l *Link) jitterSample(r Rule) time.Duration {
	if r.Jitter <= 0 {
		return 0
	}
	// Draw in normalized [-1, 1] units so correlation mixes cleanly
	// across distributions.
	var u float64
	switch r.Dist {
	case DistNormal:
		u = l.rng.NormFloat64() / 3 // ±3σ ≈ [-1, 1]
		if u > 1 {
			u = 1
		} else if u < -1 {
			u = -1
		}
	case DistPareto:
		// Heavy-tailed positive jitter, scaled so the median is small.
		alpha := 2.0
		v := math.Pow(1-l.rng.Float64(), -1/alpha) - 1 // Pareto(α)-1 ≥ 0
		if v > 10 {
			v = 10
		}
		u = v / 10 // (0, 1]
	default: // DistUniform
		u = l.rng.Float64()*2 - 1
	}
	if r.DelayCorr > 0 {
		u = r.DelayCorr*l.prevJitter + (1-r.DelayCorr)*u
	}
	l.prevJitter = u
	d := time.Duration(u * float64(r.Jitter))
	if r.Delay+d < 0 {
		d = -r.Delay
	}
	return d
}

// writeZeros makes pkt dense: its payload becomes its wire bytes, the
// elided zeros written out.
func (l *Link) writeZeros(pkt *Packet) {
	var dense []byte
	if l.bufs != nil {
		dense = l.bufs.Get(pkt.Len())[:0]
	}
	elided := pkt.Payload
	pkt.Payload = pkt.AppendWire(dense)
	pkt.ZeroAt, pkt.Zeros = 0, 0
	if l.bufs != nil {
		l.bufs.Put(elided)
	}
}

// clone copies a payload into a private buffer — pooled when a
// BufferPool is attached, freshly allocated otherwise. Delivered
// payloads stay private copies either way; corruption mutates only the
// copy.
func (l *Link) clone(b []byte) []byte {
	var out []byte
	if l.bufs != nil {
		out = l.bufs.Get(len(b))
	} else {
		out = make([]byte, len(b))
	}
	copy(out, b)
	return out
}
