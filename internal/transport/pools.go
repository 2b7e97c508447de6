package transport

import "teledrive/internal/netem"

// Pools is the shared buffer economy of one simulation's transport
// stack: segment records and reassembly state, the netem payload pool
// that also holds segment wire frames and held out-of-order frames, and
// the zeroed pool of reassembly buffers. One Pools
// serves both endpoints of a Conn — the simulation loop is
// single-threaded, so there is no contention — and survives across runs
// when owned by a session.RunScratch, which is what makes the second
// drive through a recycled arena allocation-free on the packet path.
//
// Pools is not safe for concurrent use. Never share one Pools between
// concurrently executing simulations.
type Pools struct {
	// Net recycles byte buffers: packet payload clones inside the netem
	// links and the endpoints' own buffers.
	Net *netem.BufferPool
	// zero recycles reassembly buffers, which are all zero across their
	// whole capacity whenever they are in the pool: a received chunk's
	// elided zeros are then in place without being written, and whoever
	// returns a buffer clears the bytes it wrote.
	zero *netem.BufferPool

	segs     []*segment
	partials []*partialMsg
}

// NewPools returns an empty pool set.
func NewPools() *Pools {
	return &Pools{Net: netem.NewBufferPool(), zero: netem.NewBufferPool()}
}

// seg returns a zeroed segment record.
func (p *Pools) seg() *segment {
	if l := len(p.segs); l > 0 {
		s := p.segs[l-1]
		p.segs[l-1] = nil
		p.segs = p.segs[:l-1]
		return s
	}
	return &segment{}
}

// putSeg recycles a segment record. The wire buffer is recycled
// separately (Net.Put) by the caller.
func (p *Pools) putSeg(s *segment) {
	*s = segment{}
	p.segs = append(p.segs, s)
}

// partial returns a reassembly record for count chunks, with no chunk
// present and an all-zero buffer of count×MTU bytes.
func (p *Pools) partial(count int) *partialMsg {
	var pm *partialMsg
	if l := len(p.partials); l > 0 {
		pm = p.partials[l-1]
		p.partials[l-1] = nil
		p.partials = p.partials[:l-1]
	} else {
		pm = &partialMsg{}
	}
	pm.buf = p.zero.Get(count * MTU)
	if cap(pm.got) < count {
		pm.got = make([]bool, count)
	} else {
		pm.got = pm.got[:count]
		clear(pm.got)
	}
	pm.have, pm.total, pm.dirty, pm.firstTS = 0, 0, 0, 0
	return pm
}

// putPartial recycles a reassembly record and its buffer, clearing the
// bytes the chunks wrote.
func (p *Pools) putPartial(pm *partialMsg) {
	clear(pm.buf[:pm.dirty])
	p.zero.Put(pm.buf)
	pm.buf = nil
	p.partials = append(p.partials, pm)
}
