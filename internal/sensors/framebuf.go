package sensors

// FrameBuffer encodes world views for the wire into one reused buffer
// without clearing the video fill on every frame. It keeps one
// invariant: every byte from mark up to the buffer's end is zero. A
// frame writes its message kind, header and actor records below some
// end e, clears only [e, old mark) — the previous frame's longer
// records, a few hundred bytes — and sets mark to e; the fill after e
// is then zero already. The fill is 6–24 kB a frame, so this is the
// difference between clearing a frame and clearing its records.
//
// The returned slice is valid until the next call and must not be
// written to, which would break the invariant; a consumer copies what it
// keeps (transport.Endpoint.Send does). The zero value is ready to use.
type FrameBuffer struct {
	buf  []byte // len(buf) == cap(buf)
	mark int
}

// Keyframe returns kind followed by MarshalWorldView(v).
func (b *FrameBuffer) Keyframe(kind byte, v WorldView) []byte {
	n := 1 + WorldViewWireSize(v)
	b.reserve(n)
	b.buf[0] = kind
	end := 1 + putWorldViewHead(b.buf[1:], v)
	return b.seal(end, n)
}

// Delta returns kind followed by MarshalWorldViewDelta(base, v,
// deltaFill).
func (b *FrameBuffer) Delta(kind byte, base, v WorldView, deltaFill int) []byte {
	fill := max(deltaFill, 0)
	b.reserve(1 + maxDeltaHeadLen(len(v.Others)) + fill)
	// Capacity covers the worst-case records, so the appends stay in
	// b.buf.
	head := appendWorldViewDeltaHead(append(b.buf[:0], kind), base, v, fill)
	return b.seal(len(head), len(head)+fill)
}

// reserve makes the buffer at least n bytes long. A new buffer is zero
// throughout, so mark restarts at 0.
func (b *FrameBuffer) reserve(n int) {
	if n > len(b.buf) {
		b.buf = make([]byte, n+n/4)
		b.mark = 0
	}
}

// seal restores the invariant after a frame wrote buf[:end] and returns
// the frame, buf[:n].
func (b *FrameBuffer) seal(end, n int) []byte {
	if end < b.mark {
		clear(b.buf[end:b.mark])
	}
	b.mark = end
	return b.buf[:n]
}
